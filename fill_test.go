package nustencil

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync/atomic"
	"testing"

	"nustencil/internal/grid"
)

// goid returns the calling goroutine's id, read from the header of its
// stack trace ("goroutine 18 [running]:").
func goid() int64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// fillLog records, for each cell (or row) a fill visits, how many calls
// it got and which goroutine made the last one. It is safe for the
// concurrent calls of one fill.
type fillLog struct {
	calls []atomic.Int32
	by    []atomic.Int64
}

func newFillLog(n int) *fillLog {
	return &fillLog{calls: make([]atomic.Int32, n), by: make([]atomic.Int64, n)}
}

func (l *fillLog) visit(i int, who bool) {
	l.calls[i].Add(1)
	if who {
		l.by[i].Store(goid())
	}
}

// check fails unless every entry was visited exactly once and, among the
// entries whose goroutine was recorded, those of one part (part[i] >= 0)
// came from one goroutine and different parts from different ones.
func (l *fillLog) check(t *testing.T, what string, part []int) {
	t.Helper()
	byPart := map[int]int64{}
	for i := range l.calls {
		if c := l.calls[i].Load(); c != 1 {
			t.Fatalf("%s: entry %d called %d times, want once", what, i, c)
		}
		g := l.by[i].Load()
		if g == 0 || part[i] < 0 {
			continue
		}
		if prev, ok := byPart[part[i]]; ok && prev != g {
			t.Fatalf("%s: part %d filled by goroutines %d and %d", what, part[i], prev, g)
		}
		byPart[part[i]] = g
	}
	seen := map[int64]int{}
	for p, g := range byPart {
		if q, ok := seen[g]; ok {
			t.Fatalf("%s: parts %d and %d both filled by goroutine %d", what, q, p, g)
		}
		seen[g] = p
	}
}

// sameBits fails unless got and want agree bit for bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: cell %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// pageOwners returns the modeled node of every page of g.
func pageOwners(g *grid.Grid) []int {
	var out []int
	for i := 0; i < g.Len(); i += g.PageSize() {
		out = append(out, g.OwnerOfIndex(i))
	}
	return out
}

// field is a pure per-cell value that tells every cell apart, exact in
// float64, and scribbles on pt after reading it, as a fill may.
func field(pt []int) float64 {
	v := 0.0
	for k, c := range pt {
		v = v*64 + float64(c) + 0.25*float64(k)
		pt[k] = -1
	}
	return v
}

// SetInitial, SetSource and SetCoefficients call f once per cell, and
// each cell's value is bit-identical to a reference walk that computes
// every cell's coordinates with Coords, even when f overwrites the pt it
// is given. The fills may call f concurrently, one goroutine per worker.
func TestFillsMatchCoordsWalk(t *testing.T) {
	for _, dims := range [][]int{{9}, {5, 7}, {4, 5, 6}} {
		for _, banded := range []bool{false, true} {
			for workers := 1; workers <= 4; workers++ {
				s, err := NewSolver(Config{Dims: dims, Banded: banded, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("dims %v banded %v workers %d", dims, banded, workers)
				f := func(pt []int) float64 {
					v := 0.0
					for k, c := range pt {
						v += math.Sin(float64(c)*0.17 + float64(k))
						pt[k] = -1
					}
					return v
				}
				coordsWalk := func(f func(pt []int) float64) []float64 {
					out := make([]float64, s.g.Len())
					pt := make([]int, len(dims))
					for i := range out {
						out[i] = f(s.g.Coords(i, pt))
					}
					return out
				}
				logged := func(l *fillLog, f func(pt []int) float64) func(pt []int) float64 {
					return func(pt []int) float64 {
						l.visit(s.g.Index(pt), false)
						return f(pt)
					}
				}
				none := make([]int, s.g.Len())

				want := coordsWalk(f)
				l := newFillLog(s.g.Len())
				s.SetInitial(logged(l, f))
				l.check(t, name+" SetInitial", none)
				sameBits(t, name+" buffer 0", s.g.Buf(0), want)
				sameBits(t, name+" buffer 1", s.g.Buf(1), want)

				l = newFillLog(s.g.Len())
				s.SetSource(logged(l, f))
				l.check(t, name+" SetSource", none)
				sameBits(t, name+" source", s.source, want)

				if !banded {
					continue
				}
				logs := make([]*fillLog, s.NumPoints())
				for p := range logs {
					logs[p] = newFillLog(s.g.Len())
				}
				if err := s.SetCoefficients(func(p int, pt []int) float64 {
					return logged(logs[p], f)(pt) + float64(p)
				}); err != nil {
					t.Fatal(err)
				}
				for p, band := range s.coeffs.Data {
					logs[p].check(t, fmt.Sprintf("%s coefficients of point %d", name, p), none)
					sameBits(t, fmt.Sprintf("%s coefficients of point %d", name, p), band,
						coordsWalk(func(pt []int) float64 { return f(pt) + float64(p) }))
				}
			}
		}
	}
}

// Every fill runs as the scheme's Phase I: each worker fills its own box
// of the placement, and the page-owner map then names each page's
// filling worker's node. Checked for every scheme on 1D to 3D grids,
// 1–4 workers and 1–2 nodes, including a 1D grid on 4 workers and grids
// whose interior is thinner than the worker count (the decomposition
// then cuts the unit-stride rows):
//
//   - every fill path is bit-identical in both buffers to the serial
//     Tabulate and TabulateRows reference;
//   - every cell (row, for SetInitialRows) is called once, the cells of
//     one box by one goroutine and different boxes by different ones;
//   - SetInitialRows gets whole rows, pt's last coordinate 0, and a row
//     goes to the box of its first cell;
//   - each page is on the node of the lowest worker whose box holds part
//     of it, the same after every fill, and the first Execute and the
//     scheme's own Distribute leave or make the same map.
func TestFillsPlaceEachWorkersPart(t *testing.T) {
	shapes := [][]int{{9}, {1100}, {5, 7}, {4, 20}, {4, 5, 6}, {3, 3, 12}, {6, 6, 70}}
	for _, scheme := range Schemes() {
		for _, dims := range shapes {
			for workers := 1; workers <= 4; workers++ {
				for nodes := 1; nodes <= 2; nodes++ {
					cfg := Config{Dims: dims, Scheme: scheme, Workers: workers, NUMANodes: nodes, Banded: true}
					s, err := NewSolver(cfg)
					if err != nil {
						t.Fatal(err)
					}
					checkFills(t, fmt.Sprintf("%s %v workers %d nodes %d", scheme, dims, workers, nodes), s)
				}
			}
		}
	}
}

func checkFills(t *testing.T, name string, s *Solver) {
	g := s.g
	nd, n := g.NumDims(), g.Dim(g.NumDims()-1)
	last := nd - 1
	// boxOf[i] is the box holding cell i; startOf[i] is that box again
	// when cell i begins the box's part of a row, else -1, so the logged
	// fill records one goroutine per row part.
	boxOf, startOf := make([]int, g.Len()), make([]int, g.Len())
	for w, b := range s.boxes {
		g.ForEachRow(b, func(off, m int, _ []int) {
			for i := off; i < off+m; i++ {
				boxOf[i], startOf[i] = w, -1
			}
			startOf[off] = w
		})
	}
	ref := make([]float64, g.Len())
	g.Tabulate(ref, g.Bounds(), field)

	l := newFillLog(g.Len())
	s.SetInitial(func(pt []int) float64 {
		i := g.Index(pt)
		l.visit(i, startOf[i] >= 0)
		return field(pt)
	})
	l.check(t, name+" SetInitial", startOf)
	sameBits(t, name+" SetInitial buffer 0", g.Buf(0), ref)
	sameBits(t, name+" SetInitial buffer 1", g.Buf(1), ref)

	// The lowest worker whose box holds a cell of a page places it.
	p := s.problem(0)
	owners := pageOwners(g)
	for pg, got := range owners {
		lo, hi := pg*g.PageSize(), min((pg+1)*g.PageSize(), g.Len())
		first := slices.Min(boxOf[lo:hi])
		if want := p.NodeOfWorker(first); got != want {
			t.Fatalf("%s: page %d on node %d, want worker %d's node %d", name, pg, got, first, want)
		}
	}
	s.SetInitial(field)
	if got := pageOwners(g); !slices.Equal(got, owners) {
		t.Fatalf("%s: a second fill moved the page owners %v to %v", name, owners, got)
	}

	// Rows: whole, in the box of their first cell.
	rowRef := func(pt []int, row []float64) {
		at, scratch := slices.Clone(pt), make([]int, nd)
		for i := range row {
			at[last] = i
			row[i] = field(append(scratch[:0], at...)) * 0.5
		}
		for k := range pt {
			pt[k] = -1
		}
	}
	g.TabulateRows(ref, g.Bounds(), rowRef)
	rows := newFillLog(g.Len() / n)
	rowBox := make([]int, g.Len()/n)
	for r := range rowBox {
		rowBox[r] = boxOf[r*n]
	}
	s.SetInitialRows(func(pt []int, row []float64) {
		if pt[last] != 0 || len(row) != n || cap(row) != n {
			t.Errorf("%s: SetInitialRows got a row at %v of len %d cap %d, want a whole row of %d", name, pt, len(row), cap(row), n)
			return
		}
		rows.visit(g.Index(pt)/n, true)
		rowRef(pt, row)
	})
	if t.Failed() {
		t.FailNow()
	}
	rows.check(t, name+" SetInitialRows", rowBox)
	sameBits(t, name+" SetInitialRows buffer 0", g.Buf(0), ref)
	sameBits(t, name+" SetInitialRows buffer 1", g.Buf(1), ref)

	src := make([]float64, g.Len())
	for i := range src {
		src[i] = float64(3*i) + 0.5
	}
	if err := s.Import(src); err != nil {
		t.Fatal(err)
	}
	sameBits(t, name+" Import buffer 0", g.Buf(0), src)
	sameBits(t, name+" Import buffer 1", g.Buf(1), src)

	// SetSource and SetCoefficients share SetInitial's fill; their call
	// counts are TestFillsMatchCoordsWalk's to check.
	s.SetSource(field)
	g.Tabulate(ref, g.Bounds(), field)
	sameBits(t, name+" SetSource", s.source, ref)

	coeff := func(point int, pt []int) float64 { return field(pt) + float64(point)/8 }
	if err := s.SetCoefficients(coeff); err != nil {
		t.Fatal(err)
	}
	for point, band := range s.coeffs.Data {
		g.Tabulate(ref, g.Bounds(), func(pt []int) float64 { return coeff(point, pt) })
		sameBits(t, fmt.Sprintf("%s SetCoefficients point %d", name, point), band, ref)
	}

	if got := pageOwners(g); !slices.Equal(got, owners) {
		t.Fatalf("%s: the fills moved the page owners %v to %v", name, owners, got)
	}
	if _, err := s.Execute(nil, RunSpec{Timesteps: 1}); err != nil {
		t.Fatal(err)
	}
	if got := pageOwners(g); !slices.Equal(got, owners) {
		t.Fatalf("%s: the first Execute moved the page owners %v to %v", name, owners, got)
	}
	p.Grid = grid.New(g.Dims())
	s.scheme.Distribute(p)
	if got := pageOwners(p.Grid); !slices.Equal(got, owners) {
		t.Fatalf("%s: the scheme's Distribute places pages %v, the fill %v", name, got, owners)
	}
}

// A panicking fill function reaches the caller as a panic with its own
// value, however many workers fill: the job server turns a panicking job
// body into that job's error this way.
func TestFillPanicReachesCaller(t *testing.T) {
	type boom struct{ at int }
	for workers := 1; workers <= 3; workers++ {
		s, err := NewSolver(Config{Dims: []int{6, 7, 8}, Workers: workers, Banded: true})
		if err != nil {
			t.Fatal(err)
		}
		at := s.Len() - 1 // the last cell, filled by the last box
		fills := map[string]func(){
			"SetInitial": func() {
				s.SetInitial(func(pt []int) float64 {
					if s.g.Index(pt) == at {
						panic(boom{at})
					}
					return 0
				})
			},
			"SetInitialRows": func() {
				s.SetInitialRows(func(pt []int, row []float64) {
					if s.g.Index(pt)+len(row) > at {
						panic(boom{at})
					}
				})
			},
			"SetSource": func() {
				s.SetSource(func(pt []int) float64 {
					if s.g.Index(pt) == at {
						panic(boom{at})
					}
					return 0
				})
			},
			"SetCoefficients": func() {
				_ = s.SetCoefficients(func(p int, pt []int) float64 {
					if p == 1 && s.g.Index(pt) == at {
						panic(boom{at})
					}
					return 0
				})
			},
		}
		for name, fill := range fills {
			func() {
				defer func() {
					if r := recover(); r != (boom{at}) {
						t.Errorf("workers %d: %s recovered %v, want the fill's own panic value", workers, name, r)
					}
				}()
				fill()
			}()
		}
	}
}
