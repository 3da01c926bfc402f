package grid

import (
	"math/rand"
	"testing"
)

type rowRec struct {
	off, n int
	start  []int
}

func collectForEachRow(g *Grid, b Box) []rowRec {
	var out []rowRec
	g.ForEachRow(b, func(off, n int, pt []int) {
		out = append(out, rowRec{off, n, append([]int(nil), pt...)})
	})
	return out
}

func collectRowIter(g *Grid, b, clip Box) []rowRec {
	var out []rowRec
	pt := make([]int, g.NumDims())
	for it := g.RowsIn(b, clip); it.Next(); {
		it.Start(pt)
		out = append(out, rowRec{it.Offset(), it.Length(), append([]int(nil), pt...)})
	}
	return out
}

func sameRows(t *testing.T, want, got []rowRec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("row count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.off != g.off || w.n != g.n {
			t.Fatalf("row %d: (off=%d n=%d), want (off=%d n=%d)", i, g.off, g.n, w.off, w.n)
		}
		for k := range w.start {
			if w.start[k] != g.start[k] {
				t.Fatalf("row %d: start = %v, want %v", i, g.start, w.start)
			}
		}
	}
}

// RowIter must enumerate exactly the rows ForEachRow does, in the same
// order, for random boxes and clips in 1–4 dimensions.
func TestRowIterMatchesForEachRow(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for nd := 1; nd <= 4; nd++ {
		dims := make([]int, nd)
		for k := range dims {
			dims[k] = 3 + r.Intn(8)
		}
		g := New(dims)
		for trial := 0; trial < 50; trial++ {
			lo, hi := make([]int, nd), make([]int, nd)
			clo, chi := make([]int, nd), make([]int, nd)
			for k := range dims {
				lo[k] = r.Intn(dims[k] + 1)
				hi[k] = r.Intn(dims[k] + 1)
				if lo[k] > hi[k] {
					lo[k], hi[k] = hi[k], lo[k]
				}
				clo[k] = r.Intn(dims[k] + 1)
				chi[k] = r.Intn(dims[k] + 1)
				if clo[k] > chi[k] {
					clo[k], chi[k] = chi[k], clo[k]
				}
			}
			b, clip := NewBox(lo, hi), NewBox(clo, chi)
			want := collectForEachRow(g, b.Intersect(clip))
			sameRows(t, want, collectRowIter(g, b, clip))
			// Unclipped variant.
			sameRows(t, collectForEachRow(g, b), collectRowIter(g, b, g.Bounds()))
		}
	}
}

func TestRowIterEmptyIntersection(t *testing.T) {
	g := New([]int{4, 4})
	it := g.RowsIn(NewBox([]int{0, 0}, []int{2, 2}), NewBox([]int{2, 2}, []int{4, 4}))
	if it.Next() {
		t.Fatal("empty intersection produced a row")
	}
	if it.Next() {
		t.Fatal("Next returned true after exhaustion")
	}
}

func TestRowIterFullGrid(t *testing.T) {
	g := New([]int{3, 4, 5})
	rows := collectRowIter(g, g.Bounds(), g.Bounds())
	if len(rows) != 3*4 {
		t.Fatalf("rows = %d, want 12", len(rows))
	}
	total := 0
	for _, rr := range rows {
		total += rr.n
	}
	if total != g.Len() {
		t.Fatalf("covered %d cells, want %d", total, g.Len())
	}
}

func TestRowIterDimensionMismatchPanics(t *testing.T) {
	g := New([]int{4, 4})
	defer func() {
		if recover() == nil {
			t.Error("RowsIn with mismatched dims should panic")
		}
	}()
	g.RowsIn(NewBox([]int{0}, []int{4}), g.Bounds())
}

func TestRowIterTooManyDimsPanics(t *testing.T) {
	dims := make([]int, MaxRowDims+1)
	for k := range dims {
		dims[k] = 2
	}
	g := New(dims)
	defer func() {
		if recover() == nil {
			t.Error("RowsIn beyond MaxRowDims should panic")
		}
	}()
	g.RowsIn(g.Bounds(), g.Bounds())
}

// Constructing and draining an iterator must not allocate — the property
// the kernel hot paths rely on.
func TestRowIterNoAllocs(t *testing.T) {
	g := New([]int{16, 16, 16})
	b := g.Interior(1)
	allocs := testing.AllocsPerRun(20, func() {
		sum := 0
		for it := g.RowsIn(b, b); it.Next(); {
			sum += it.Length()
		}
		if sum == 0 {
			t.Fatal("no rows")
		}
	})
	if allocs != 0 {
		t.Errorf("RowIter allocated %.1f times per loop, want 0", allocs)
	}
}
