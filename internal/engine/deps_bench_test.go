package engine_test

import (
	"testing"

	"nustencil/internal/affinity"
	"nustencil/internal/engine"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/tiling"
	"nustencil/internal/tiling/nucorals"
)

// bigTiling builds a nuCORALS tiling large enough (>= 10k tiles) to make
// the dependency derivation's scaling visible.
func bigTiling(tb testing.TB) []*spacetime.Tile {
	tb.Helper()
	g := grid.New([]int{514, 66, 66})
	p := &tiling.Problem{
		Grid:              g,
		Stencil:           stencil.NewStar(3, 1),
		Timesteps:         256,
		Workers:           64,
		Topo:              affinity.Fixed{Cores: 64, Nodes: 4},
		LLCBytesPerWorker: 1 << 16,
	}
	sch := nucorals.New()
	sch.Distribute(p)
	tiles, err := sch.Tiles(p)
	if err != nil {
		tb.Fatal(err)
	}
	if len(tiles) < 10000 {
		tb.Fatalf("tiling too small for the benchmark: %d tiles, want >= 10000", len(tiles))
	}
	return spacetime.AssignIDs(tiles)
}

// BenchmarkBuildDeps measures the tile dependency derivation on a large
// nuCORALS tiling — the cost Execute pays on the first call for a given
// timestep count (later calls reuse the solver's cached plan).
func BenchmarkBuildDeps(b *testing.B) {
	tiles := bigTiling(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		deps := engine.BuildDeps(tiles, 1, nil)
		if len(deps) != len(tiles) {
			b.Fatal("bad deps")
		}
	}
	b.ReportMetric(float64(len(tiles)), "tiles")
}

// BenchmarkCheckPlan measures the plan-time acyclicity check on the same
// tiling. A solver pays it once per plan, next to BuildDeps.
func BenchmarkCheckPlan(b *testing.B) {
	tiles := bigTiling(b)
	deps := engine.BuildDeps(tiles, 1, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.CheckDeps(deps); err != nil {
			b.Fatal(err)
		}
	}
}

// Two multi-timestep tiles on opposite edges of a periodic domain intersect
// across the seam at every timestep; the derivation must record the wrap
// edge exactly once per (dependent, dependency) pair.
func TestBuildDepsWrapDedup(t *testing.T) {
	const ext, height = 100, 4
	interior := grid.NewBox([]int{0}, []int{ext})
	var tiles []*spacetime.Tile
	for lo := 0; lo < ext; lo += 10 {
		b := grid.NewBox([]int{lo}, []int{lo + 10})
		tile := spacetime.NewTileFromBox(b, 0, height, interior)
		tile.Owner = lo / 10
		tiles = append(tiles, tile)
	}
	spacetime.AssignIDs(tiles)
	left, right := 0, len(tiles)-1 // [0,10) and [90,100)

	flat := engine.BuildDeps(tiles, 1, nil)
	wrapped := engine.BuildDeps(tiles, 1, []int{ext})

	count := func(deps [][]int, i, j int) int {
		n := 0
		for _, d := range deps[i] {
			if d == j {
				n++
			}
		}
		return n
	}
	if count(flat, left, right) != 0 {
		t.Error("flat space has an edge across the domain boundary")
	}
	if got := count(wrapped, left, right); got != 1 {
		t.Errorf("wrap edge left->right recorded %d times, want exactly 1", got)
	}
	if got := count(wrapped, right, left); got != 1 {
		t.Errorf("wrap edge right->left recorded %d times, want exactly 1", got)
	}
	// No pair anywhere may be duplicated, wrapped or not.
	for _, deps := range [][][]int{flat, wrapped} {
		for i := range deps {
			seen := map[int]bool{}
			for _, j := range deps[i] {
				if seen[j] {
					t.Fatalf("tile %d lists dependency %d twice", i, j)
				}
				seen[j] = true
			}
		}
	}
	// Interior neighbours must still be found alongside the wrap edges.
	if count(wrapped, left, 1) != 1 {
		t.Error("missing ordinary neighbour edge")
	}
}
