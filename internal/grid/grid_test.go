package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewGridShape(t *testing.T) {
	g := New([]int{4, 5, 6})
	if g.NumDims() != 3 || g.Len() != 120 {
		t.Fatalf("shape wrong: dims=%v len=%d", g.Dims(), g.Len())
	}
	// Row-major: last dimension unit stride.
	if g.Stride(2) != 1 || g.Stride(1) != 6 || g.Stride(0) != 30 {
		t.Fatalf("strides = %d,%d,%d", g.Stride(0), g.Stride(1), g.Stride(2))
	}
	if !g.Bounds().Equal(NewBox([]int{0, 0, 0}, []int{4, 5, 6})) {
		t.Errorf("Bounds = %v", g.Bounds())
	}
	if !g.Interior(1).Equal(NewBox([]int{1, 1, 1}, []int{3, 4, 5})) {
		t.Errorf("Interior(1) = %v", g.Interior(1))
	}
}

func TestNewGridPanics(t *testing.T) {
	for _, dims := range [][]int{{}, {0}, {3, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", dims)
				}
			}()
			New(dims)
		}()
	}
}

func TestIndexCoordsRoundTrip(t *testing.T) {
	g := New([]int{3, 7, 5})
	pt := make([]int, 3)
	for i := 0; i < g.Len(); i++ {
		g.Coords(i, pt)
		if got := g.Index(pt); got != i {
			t.Fatalf("round trip failed: %d -> %v -> %d", i, pt, got)
		}
	}
}

func TestAtSet(t *testing.T) {
	g := New([]int{4, 4})
	g.Set(0, []int{2, 3}, 7.5)
	if got := g.At(0, []int{2, 3}); got != 7.5 {
		t.Fatalf("At = %v", got)
	}
	if got := g.At(1, []int{2, 3}); got != 0 {
		t.Fatalf("other buffer should be untouched, got %v", got)
	}
	// Buffer index is taken mod 2.
	g.Set(3, []int{0, 0}, 1.5)
	if got := g.At(1, []int{0, 0}); got != 1.5 {
		t.Fatalf("buffer 3 should alias buffer 1, got %v", got)
	}
}

func TestFillFunc(t *testing.T) {
	g := New([]int{3, 3})
	g.FillFunc(func(pt []int) float64 { return float64(pt[0]*10 + pt[1]) })
	for b := 0; b < 2; b++ {
		if got := g.At(b, []int{2, 1}); got != 21 {
			t.Fatalf("buffer %d: got %v, want 21", b, got)
		}
	}
}

// Tabulate's odometer walk calls f at the same coordinates, in the same
// order, as a walk that recomputes them with Coords for every cell, even
// when f overwrites the pt it is given.
func TestTabulateMatchesCoordsWalk(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		dims := make([]int, 1+r.Intn(4))
		for k := range dims {
			dims[k] = 1 + r.Intn(6)
		}
		g := New(dims)
		var calls [][]int
		got := make([]float64, g.Len())
		g.Tabulate(got, g.Bounds(), func(pt []int) float64 {
			calls = append(calls, append([]int(nil), pt...))
			v := float64(g.Index(pt))
			for k := range pt {
				pt[k] = -1 - k
			}
			return v
		})
		pt := make([]int, len(dims))
		for i, want := range got {
			g.Coords(i, pt)
			if want != float64(i) {
				t.Fatalf("dims %v: cell %d holds %v", dims, i, want)
			}
			for k := range pt {
				if calls[i][k] != pt[k] {
					t.Fatalf("dims %v: call %d at %v, want %v", dims, i, calls[i], pt)
				}
			}
		}
	}
}

// TabulateRows calls f once per unit-stride row, in row-major order, with pt
// at the row's first cell and row the row's cells, its capacity clipped to
// the row, even when f overwrites the pt it is given. A 1D grid is one row.
func TestTabulateRows(t *testing.T) {
	for _, dims := range [][]int{{7}, {1, 5}, {3, 4}, {2, 3, 4}, {2, 1, 3, 2}} {
		g := New(dims)
		last := len(dims) - 1
		n := dims[last]
		dst := make([]float64, g.Len())
		calls := 0
		g.TabulateRows(dst, g.Bounds(), func(pt []int, row []float64) {
			if len(row) != n || cap(row) != n {
				t.Fatalf("dims %v: row %d has len %d cap %d, want %d", dims, calls, len(row), cap(row), n)
			}
			want := make([]int, len(dims))
			g.Coords(calls*n, want)
			for k := range pt {
				if pt[k] != want[k] {
					t.Fatalf("dims %v: row %d starts at %v, want %v", dims, calls, pt, want)
				}
			}
			for i := range row {
				row[i] = float64(calls*n + i)
			}
			for k := range pt {
				pt[k] = -1 - k
			}
			calls++
		})
		if calls != g.Len()/n {
			t.Fatalf("dims %v: %d calls, want %d rows", dims, calls, g.Len()/n)
		}
		for i, v := range dst {
			if v != float64(i) {
				t.Fatalf("dims %v: cell %d holds %v", dims, i, v)
			}
		}
	}
}

// Over a box, the fills touch only the box's cells, call f once per cell
// or per run of the box in row-major order, start a run's pt at the box's
// low bound in the unit-stride dimension, and, for FillFuncIn and
// FillRowsIn, set both buffers alike.
func TestFillsWithinABox(t *testing.T) {
	g := New([]int{4, 5, 9})
	b := NewBox([]int{1, 2, 3}, []int{3, 4, 7})
	const untouched = -7.0
	reset := func() {
		for i := range g.Buf(0) {
			g.Buf(0)[i], g.Buf(1)[i] = untouched, untouched
		}
	}
	want := func(pt []int) float64 { return float64(g.Index(pt)) }
	check := func(what string, bufs ...[]float64) {
		t.Helper()
		pt := make([]int, 3)
		for _, buf := range bufs {
			for i, v := range buf {
				g.Coords(i, pt)
				w := untouched
				if b.Contains(pt) {
					w = float64(i)
				}
				if v != w {
					t.Fatalf("%s: cell %v holds %v, want %v", what, pt, v, w)
				}
			}
		}
	}
	var cells [][]int
	cellF := func(pt []int) float64 {
		cells = append(cells, append([]int(nil), pt...))
		v := want(pt)
		pt[0], pt[2] = -1, -1
		return v
	}
	rowF := func(pt []int, row []float64) {
		if pt[2] != b.Lo[2] || len(row) != b.Extent(2) || cap(row) != len(row) {
			t.Fatalf("run at %v of len %d cap %d, want one starting at %d of %d cells", pt, len(row), cap(row), b.Lo[2], b.Extent(2))
		}
		for i := range row {
			row[i] = float64(g.Index(pt) + i)
		}
		pt[0] = -1
	}
	wantCells := func(what string) {
		t.Helper()
		if len(cells) != int(b.Size()) {
			t.Fatalf("%s: %d calls, want %d", what, len(cells), b.Size())
		}
		for i := 1; i < len(cells); i++ {
			if g.Index(cells[i]) <= g.Index(cells[i-1]) {
				t.Fatalf("%s: call %d at %v after %v", what, i, cells[i], cells[i-1])
			}
		}
		cells = nil
	}

	reset()
	g.Tabulate(g.Buf(0), b, cellF)
	wantCells("Tabulate")
	check("Tabulate", g.Buf(0))
	reset()
	g.TabulateRows(g.Buf(1), b, rowF)
	check("TabulateRows", g.Buf(1))
	reset()
	g.FillFuncIn(b, cellF)
	wantCells("FillFuncIn")
	check("FillFuncIn", g.Buf(0), g.Buf(1))
	reset()
	g.FillRowsIn(b, rowF)
	check("FillRowsIn", g.Buf(0), g.Buf(1))
}

func TestTabulateLengthPanics(t *testing.T) {
	g := New([]int{3, 4})
	for name, tab := range map[string]func([]float64){
		"Tabulate":     func(d []float64) { g.Tabulate(d, g.Bounds(), func([]int) float64 { return 0 }) },
		"TabulateRows": func(d []float64) { g.TabulateRows(d, g.Bounds(), func([]int, []float64) {}) },
	} {
		for _, n := range []int{11, 13} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s into %d cells of a 12-cell grid did not panic", name, n)
					}
				}()
				tab(make([]float64, n))
			}()
		}
	}
}

func TestForEachRowCoversBoxExactlyOnce(t *testing.T) {
	g := New([]int{5, 6, 7})
	b := NewBox([]int{1, 2, 3}, []int{4, 5, 6})
	seen := make(map[int]int)
	g.ForEachRow(b, func(off, length int, pt []int) {
		if length != 3 {
			t.Fatalf("row length = %d, want 3", length)
		}
		for i := 0; i < length; i++ {
			seen[off+i]++
		}
	})
	if int64(len(seen)) != b.Size() {
		t.Fatalf("covered %d elements, want %d", len(seen), b.Size())
	}
	pt := make([]int, 3)
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("offset %d visited %d times", idx, n)
		}
		if !b.Contains(g.Coords(idx, pt)) {
			t.Fatalf("offset %d outside box", idx)
		}
	}
}

func TestForEachRowEmptyBox(t *testing.T) {
	g := New([]int{4, 4})
	calls := 0
	g.ForEachRow(NewBox([]int{2, 2}, []int{2, 4}), func(int, int, []int) { calls++ })
	if calls != 0 {
		t.Fatalf("empty box produced %d calls", calls)
	}
}

// Property: for random sub-boxes, ForEachRow visits exactly Size() elements,
// each once, all inside the box.
func TestForEachRowProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		nd := 1 + rr.Intn(3)
		dims := make([]int, nd)
		for k := range dims {
			dims[k] = 1 + rr.Intn(6)
		}
		g := New(dims)
		b := randBox(rr, nd, 8).Intersect(g.Bounds())
		count := int64(0)
		ok := true
		pt := make([]int, nd)
		g.ForEachRow(b, func(off, length int, _ []int) {
			count += int64(length)
			for i := 0; i < length; i++ {
				if !b.Contains(g.Coords(off+i, pt)) {
					ok = false
				}
			}
		})
		return ok && count == b.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := New([]int{4, 4})
	g.Set(0, []int{1, 1}, 3)
	g.Touch(g.Bounds(), 2)
	c := g.Clone()
	c.Set(0, []int{1, 1}, 9)
	if g.At(0, []int{1, 1}) != 3 {
		t.Error("clone write leaked into original")
	}
	if c.OwnerOfIndex(c.Index([]int{1, 1})) != 2 {
		t.Error("clone should copy ownership")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := New([]int{3, 3})
	b := New([]int{3, 3})
	a.Set(0, []int{2, 2}, 1.5)
	b.Set(0, []int{2, 2}, -0.5)
	if got := a.MaxAbsDiff(0, b, 0); got != 2 {
		t.Fatalf("MaxAbsDiff = %v, want 2", got)
	}
	if got := a.MaxAbsDiff(1, b, 1); got != 0 {
		t.Fatalf("identical buffers diff = %v", got)
	}
}

func TestOwnershipFirstTouch(t *testing.T) {
	g := NewWithPageSize([]int{4, 8}, 4) // 8 pages of 4 elements
	upper := NewBox([]int{0, 0}, []int{2, 8})
	lower := NewBox([]int{2, 0}, []int{4, 8})
	g.Touch(upper, 0)
	g.Touch(lower, 1)
	if got := g.OwnerOfIndex(g.Index([]int{0, 5})); got != 0 {
		t.Errorf("upper owner = %d, want 0", got)
	}
	if got := g.OwnerOfIndex(g.Index([]int{3, 0})); got != 1 {
		t.Errorf("lower owner = %d, want 1", got)
	}
	// First touch wins: re-touching with a different node is a no-op.
	g.Touch(upper, 1)
	if got := g.OwnerOfIndex(g.Index([]int{0, 0})); got != 0 {
		t.Errorf("owner after re-touch = %d, want 0", got)
	}
}

func TestOwnershipCountAndLocalFraction(t *testing.T) {
	g := NewWithPageSize([]int{2, 8}, 4)         // rows of 8 = 2 pages each
	g.Touch(NewBox([]int{0, 0}, []int{1, 8}), 0) // row 0 -> node 0
	g.Touch(NewBox([]int{1, 0}, []int{2, 8}), 1) // row 1 -> node 1
	counts := g.OwnershipCount(g.Bounds(), 2)
	if counts[0] != 8 || counts[1] != 8 || counts[2] != 0 {
		t.Fatalf("counts = %v", counts)
	}
	if f := g.LocalFraction(g.Bounds(), 0, 2); f != 0.5 {
		t.Errorf("LocalFraction = %v, want 0.5", f)
	}
	if f := g.LocalFraction(NewBox([]int{0, 0}, []int{1, 8}), 0, 2); f != 1 {
		t.Errorf("row-0 LocalFraction = %v, want 1", f)
	}
	// Empty box: nothing remote.
	if f := g.LocalFraction(NewBox([]int{0, 0}, []int{0, 0}), 0, 2); f != 1 {
		t.Errorf("empty LocalFraction = %v, want 1", f)
	}
}

func TestOwnershipUntouchedCountsAsRemote(t *testing.T) {
	g := NewWithPageSize([]int{2, 4}, 4)
	counts := g.OwnershipCount(g.Bounds(), 2)
	if counts[2] != 8 {
		t.Fatalf("untouched counts = %v", counts)
	}
	if f := g.LocalFraction(g.Bounds(), 0, 2); f != 0 {
		t.Errorf("untouched LocalFraction = %v, want 0", f)
	}
	g.Touch(g.Bounds(), 1)
	if f := g.LocalFraction(g.Bounds(), 1, 2); f != 1 {
		t.Errorf("after touching every page LocalFraction = %v, want 1", f)
	}
}

// Property: OwnershipCount over any box sums to the box size.
func TestOwnershipCountSumsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		nd := 1 + rr.Intn(3)
		dims := make([]int, nd)
		for k := range dims {
			dims[k] = 1 + rr.Intn(6)
		}
		g := NewWithPageSize(dims, 1+rr.Intn(8))
		numNodes := 1 + rr.Intn(4)
		for i := 0; i < 4; i++ {
			g.Touch(randBox(rr, nd, 8).Intersect(g.Bounds()), rr.Intn(numNodes))
		}
		b := randBox(rr, nd, 8).Intersect(g.Bounds())
		counts := g.OwnershipCount(b, numNodes)
		var sum int64
		for _, c := range counts {
			sum += c
		}
		return sum == b.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
