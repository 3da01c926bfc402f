package verify

import (
	"math"
	"testing"

	"nustencil/internal/grid"
	"nustencil/internal/stencil"
)

func TestSolveCountsUpdates(t *testing.T) {
	g := grid.New([]int{6, 6, 6})
	op := stencil.NewOp(stencil.NewStar(3, 1), g)
	n := Solve(op, 3)
	if n != 4*4*4*3 {
		t.Fatalf("updates = %d, want %d", n, 4*4*4*3)
	}
	if Solve(op, 0) != 0 {
		t.Error("zero steps should do no updates")
	}
}

func TestSolveConservesConstantField(t *testing.T) {
	g := grid.New([]int{8, 8})
	g.FillFunc(func([]int) float64 { return 5 })
	op := stencil.NewOp(stencil.NewStar(2, 1), g)
	Solve(op, 7)
	if v := g.At(7, []int{4, 4}); math.Abs(v-5) > 1e-12 {
		t.Fatalf("constant field drifted: %v", v)
	}
}

func TestCompareDetectsDifference(t *testing.T) {
	a := grid.New([]int{5, 5})
	b := grid.New([]int{5, 5})
	if err := Compare(a, b, 4); err != nil {
		t.Fatalf("identical grids rejected: %v", err)
	}
	// The deviation must be in the buffer Compare actually inspects
	// (timesteps % 2).
	b.Set(1, []int{2, 2}, 1e-9)
	if err := Compare(a, b, 3); err == nil {
		t.Fatal("deviation in buffer 1 not detected at odd timestep count")
	}
	if err := Compare(a, b, 4); err != nil {
		t.Fatalf("buffer 0 still matches: %v", err)
	}
}
