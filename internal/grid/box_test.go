package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBoxBasics(t *testing.T) {
	b := NewBox([]int{1, 2, 3}, []int{4, 6, 8})
	if b.NumDims() != 3 {
		t.Fatalf("NumDims = %d, want 3", b.NumDims())
	}
	if b.Empty() {
		t.Fatal("box should not be empty")
	}
	if got := b.Size(); got != 3*4*5 {
		t.Fatalf("Size = %d, want 60", got)
	}
	if !b.Contains([]int{1, 2, 3}) {
		t.Error("Lo corner should be contained")
	}
	if b.Contains([]int{4, 2, 3}) {
		t.Error("Hi corner should be excluded")
	}
	if b.Contains([]int{0, 2, 3}) {
		t.Error("point below Lo should be excluded")
	}
}

func TestBoxEmpty(t *testing.T) {
	cases := []Box{
		NewBox([]int{0}, []int{0}),
		NewBox([]int{5}, []int{3}),
		NewBox([]int{0, 0}, []int{4, 0}),
		{}, // zero-dimensional
	}
	for _, b := range cases {
		if !b.Empty() {
			t.Errorf("%v should be empty", b)
		}
		if b.Size() != 0 {
			t.Errorf("%v Size = %d, want 0", b, b.Size())
		}
	}
}

func TestBoxIntersect(t *testing.T) {
	a := NewBox([]int{0, 0}, []int{10, 10})
	b := NewBox([]int{5, -5}, []int{15, 5})
	got := a.Intersect(b)
	want := NewBox([]int{5, 0}, []int{10, 5})
	if !got.Equal(want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	if !a.Intersects(b) {
		t.Error("a and b should intersect")
	}
	c := NewBox([]int{20, 20}, []int{30, 30})
	if a.Intersects(c) {
		t.Error("a and c should not intersect")
	}
	if !a.Intersect(c).Empty() {
		t.Error("disjoint intersection should be empty")
	}
}

func TestBoxContainsBox(t *testing.T) {
	a := NewBox([]int{0, 0}, []int{10, 10})
	if !a.ContainsBox(NewBox([]int{2, 3}, []int{4, 10})) {
		t.Error("inner box should be contained")
	}
	if a.ContainsBox(NewBox([]int{2, 3}, []int{4, 11})) {
		t.Error("overhanging box should not be contained")
	}
	if !a.ContainsBox(NewBox([]int{50, 50}, []int{50, 50})) {
		t.Error("empty box is contained in any box")
	}
}

func TestBoxShiftGrow(t *testing.T) {
	a := NewBox([]int{1, 1}, []int{3, 4})
	s := a.Shift([]int{10, -1})
	if !s.Equal(NewBox([]int{11, 0}, []int{13, 3})) {
		t.Errorf("Shift = %v", s)
	}
	g := a.Grow(2)
	if !g.Equal(NewBox([]int{-1, -1}, []int{5, 6})) {
		t.Errorf("Grow = %v", g)
	}
	sh := a.Grow(-1)
	if !sh.Equal(NewBox([]int{2, 2}, []int{2, 3})) {
		t.Errorf("Grow(-1) = %v", sh)
	}
	if !sh.Empty() {
		t.Error("over-shrunk box should be empty")
	}
}

func TestBoxSplitAt(t *testing.T) {
	a := NewBox([]int{0, 0}, []int{10, 6})
	lo, hi := a.SplitAt(0, 4)
	if !lo.Equal(NewBox([]int{0, 0}, []int{4, 6})) || !hi.Equal(NewBox([]int{4, 0}, []int{10, 6})) {
		t.Fatalf("SplitAt = %v | %v", lo, hi)
	}
	if lo.Size()+hi.Size() != a.Size() {
		t.Error("split sizes must sum to whole")
	}
	// Clamped cut.
	lo, hi = a.SplitAt(1, 100)
	if !hi.Empty() || lo.Size() != a.Size() {
		t.Errorf("clamped split got %v | %v", lo, hi)
	}
}

func randBox(r *rand.Rand, nd, span int) Box {
	lo := make([]int, nd)
	hi := make([]int, nd)
	for k := 0; k < nd; k++ {
		lo[k] = r.Intn(span) - span/2
		hi[k] = lo[k] + r.Intn(span)
	}
	return Box{Lo: lo, Hi: hi}
}

// Property: intersection is commutative, contained in both operands, and
// contains exactly the points contained in both.
func TestBoxIntersectProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		nd := 1 + rr.Intn(4)
		a, b := randBox(rr, nd, 12), randBox(rr, nd, 12)
		ab, ba := a.Intersect(b), b.Intersect(a)
		if !ab.Equal(ba) {
			return false
		}
		if !ab.Empty() && (!a.ContainsBox(ab) || !b.ContainsBox(ab)) {
			return false
		}
		// Sample points and check membership equivalence.
		pt := make([]int, nd)
		for i := 0; i < 50; i++ {
			for k := range pt {
				pt[k] = rr.Intn(14) - 7
			}
			if (a.Contains(pt) && b.Contains(pt)) != ab.Contains(pt) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Grow(r).Grow(-r) returns the original box for non-empty boxes
// with all extents > 0.
func TestBoxGrowInverseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		nd := 1 + rr.Intn(4)
		b := randBox(rr, nd, 10)
		if b.Empty() {
			return true
		}
		r := rr.Intn(5)
		return b.Grow(r).Grow(-r).Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
