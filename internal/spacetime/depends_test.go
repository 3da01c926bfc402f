package spacetime_test

import (
	"testing"

	"nustencil/internal/engine"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
)

// dependsOn reports whether tile t flow-depends on tile v for a stencil of
// order s, by the relation engine.BuildDeps derives: some cross-section of t
// at timestep ts, grown by s, meets v's cross-section at ts-1.
func dependsOn(t, v *spacetime.Tile, s int) bool {
	deps := engine.BuildDeps(spacetime.AssignIDs([]*spacetime.Tile{v, t}), s, nil)
	return len(deps[1]) == 1 && deps[1][0] == 0
}

func tile1(lo, hi, t int) *spacetime.Tile {
	return spacetime.NewTileFromBox(grid.NewBox([]int{lo}, []int{hi}), t, 1, grid.NewBox([]int{0}, []int{100}))
}

func TestDependsOn(t *testing.T) {
	a := tile1(0, 10, 0)  // t=0, cells [0,10)
	b := tile1(10, 20, 1) // t=1, cells [10,20)
	// b reads cells [9,21) at t=0 for s=1, so b depends on a.
	if !dependsOn(b, a, 1) {
		t.Error("b should depend on a")
	}
	if dependsOn(a, b, 1) {
		t.Error("a must not depend on b (time order)")
	}
	// A far-away tile does not create a dependency.
	c := tile1(50, 60, 1)
	if dependsOn(c, a, 1) {
		t.Error("c should not depend on a")
	}
	// Higher order reaches further.
	d := tile1(12, 20, 1)
	if dependsOn(d, a, 2) {
		t.Error("d's nearest read for s=2 is cell 10 ∉ [0,10)")
	}
	if !dependsOn(d, a, 3) {
		t.Error("d should depend for s=3 (reads cell 9)")
	}
}

func TestDependsOnSameTimestepNever(t *testing.T) {
	a := tile1(0, 10, 0)
	b := tile1(10, 20, 0)
	if dependsOn(a, b, 3) || dependsOn(b, a, 3) {
		t.Error("same-timestep tiles have no flow dependency")
	}
}
