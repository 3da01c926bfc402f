package nustencil

import (
	"context"
	"errors"
	"math"
	"testing"

	"nustencil/internal/engine"
	"nustencil/internal/spacetime"
	"nustencil/internal/tiling"
)

// countingScheme wraps a tiling scheme and counts Tiles invocations — the
// observable cost the plan cache exists to avoid. Embedding the interface
// (not a concrete type) deliberately hides any Traverser implementation;
// the schemes used below have none.
type countingScheme struct {
	tiling.Scheme
	tilesCalls int
}

func (c *countingScheme) Tiles(p *tiling.Problem) ([]*spacetime.Tile, error) {
	c.tilesCalls++
	return c.Scheme.Tiles(p)
}

// fixedScheme wraps a tiling scheme and replaces its tiling with a fixed one
// built from the problem, to feed the solver structurally broken plans.
type fixedScheme struct {
	tiling.Scheme
	tiles func(p *tiling.Problem) []*spacetime.Tile
}

func (f *fixedScheme) Tiles(p *tiling.Problem) ([]*spacetime.Tile, error) {
	return f.tiles(p), nil
}

// TestStructuralPlanErrorRejected: a plan whose dependencies are cyclic, or
// whose static order would deadlock, is rejected when it is built. The
// error surfaces from Execute, but the plan is not cached, no tile touches
// the grid, and the solver is not poisoned.
func TestStructuralPlanErrorRejected(t *testing.T) {
	// tile cuts the interior at its dim-0 midpoint and returns the left or
	// right half spanning timesteps [t0, t0+height), owned by owner.
	tile := func(p *tiling.Problem, right bool, t0, height, owner int) *spacetime.Tile {
		in := p.Grid.Interior(p.Stencil.Order)
		b := in.Clone()
		mid := (in.Lo[0] + in.Hi[0]) / 2
		if right {
			b.Lo[0] = mid
		} else {
			b.Hi[0] = mid
		}
		tl := spacetime.NewTileFromBox(b, t0, height, in)
		tl.Owner = owner
		return tl
	}
	for _, tc := range []struct {
		name   string
		static bool
		tiles  func(p *tiling.Problem) []*spacetime.Tile
		want   error
	}{
		// Two side-by-side tiles spanning every step each read the other's
		// earlier output.
		{"cycle", false, func(p *tiling.Problem) []*spacetime.Tile {
			return []*spacetime.Tile{
				tile(p, false, 0, p.Timesteps, -1),
				tile(p, true, 0, p.Timesteps, -1),
			}
		}, engine.ErrCycle},
		// Each worker lists its step-1 tile before the step-0 tile the
		// other worker's step-1 tile needs.
		{"static order", true, func(p *tiling.Problem) []*spacetime.Tile {
			return []*spacetime.Tile{
				tile(p, false, 1, 1, 0),
				tile(p, true, 0, 1, 0),
				tile(p, true, 1, 1, 1),
				tile(p, false, 0, 1, 1),
			}
		}, engine.ErrStaticDeadlock},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSolver(Config{
				Dims: []int{22, 12}, Timesteps: 2, Scheme: Naive,
				Workers: 2, StaticSchedule: tc.static,
			})
			if err != nil {
				t.Fatal(err)
			}
			s.SetInitial(func(pt []int) float64 { return float64(pt[0]*5-pt[1]) * 0.25 })
			before := s.Export(nil)
			s.scheme = &fixedScheme{Scheme: s.scheme, tiles: tc.tiles}

			if _, err := s.Execute(context.Background(), RunSpec{Timesteps: 2}); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			if err := s.Err(); err != nil {
				t.Fatalf("rejected plan poisoned the solver: %v", err)
			}
			if len(s.plans) != 0 {
				t.Fatalf("rejected plan was cached (%d plans)", len(s.plans))
			}
			after := s.Export(nil)
			for i := range before {
				if math.Float64bits(after[i]) != math.Float64bits(before[i]) {
					t.Fatalf("grid value %d changed from %v to %v", i, before[i], after[i])
				}
			}
		})
	}
}

// TestPlanCacheReusesTiling: a second Execute with the same timestep count
// must reuse the cached plan (tiler not re-invoked), while a different
// timestep count must rebuild.
func TestPlanCacheReusesTiling(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{18, 18, 18}, Timesteps: 4, Scheme: NuCORALS, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(func(pt []int) float64 { return float64(pt[0] + pt[1]) })
	cs := &countingScheme{Scheme: s.scheme}
	s.scheme = cs

	if _, err := s.Execute(nil, RunSpec{Timesteps: 4}); err != nil {
		t.Fatal(err)
	}
	if cs.tilesCalls != 1 {
		t.Fatalf("first run invoked the tiler %d times, want 1", cs.tilesCalls)
	}
	if _, err := s.Execute(nil, RunSpec{Timesteps: 4}); err != nil {
		t.Fatal(err)
	}
	if cs.tilesCalls != 1 {
		t.Fatalf("second identical run invoked the tiler again (%d calls): plan cache miss", cs.tilesCalls)
	}
	if _, err := s.Execute(nil, RunSpec{Timesteps: 2}); err != nil {
		t.Fatal(err)
	}
	if cs.tilesCalls != 2 {
		t.Fatalf("different timestep count reused a stale plan (%d tiler calls, want 2)", cs.tilesCalls)
	}
	// Both plans stay cached: replaying either count stays tiler-free.
	if _, err := s.Execute(nil, RunSpec{Timesteps: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(nil, RunSpec{Timesteps: 2}); err != nil {
		t.Fatal(err)
	}
	if cs.tilesCalls != 2 {
		t.Fatalf("replaying cached timestep counts rebuilt (%d tiler calls, want 2)", cs.tilesCalls)
	}
	if len(s.plans) != 2 {
		t.Fatalf("plan cache holds %d plans, want 2", len(s.plans))
	}
}

// TestPlanCachePerSolver: plans are keyed inside one solver; a solver with
// different geometry or workers builds its own (nothing is shared that
// could leak a stale tiling across configurations).
func TestPlanCachePerSolver(t *testing.T) {
	mk := func(dims []int, workers int) *Solver {
		s, err := NewSolver(Config{Dims: dims, Timesteps: 3, Scheme: NuCORALS, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := mk([]int{18, 18, 18}, 2)
	b := mk([]int{26, 14, 14}, 3)
	if _, err := a.Execute(nil, RunSpec{Timesteps: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Execute(nil, RunSpec{Timesteps: 3}); err != nil {
		t.Fatal(err)
	}
	pa, pb := a.plans[3], b.plans[3]
	if pa == nil || pb == nil {
		t.Fatal("plan not cached")
	}
	if pa == pb {
		t.Fatal("solvers with different geometry share a plan")
	}
	if len(pa.trav) != len(pa.tiles) || len(pb.trav) != len(pb.tiles) {
		t.Fatalf("interned traversals not aligned with tiles: %d/%d and %d/%d",
			len(pa.trav), len(pa.tiles), len(pb.trav), len(pb.tiles))
	}
}

// TestCachedPlanRunAllocs pins the allocation diet end to end: once the
// plan is cached, an Execute call must allocate O(1) — per-run
// scheduler state comes from the pool, traversals and dependency arrays
// from the plan — not O(tiles). Before the diet this path cost several
// allocations per tile.
func TestCachedPlanRunAllocs(t *testing.T) {
	s, err := NewSolver(Config{
		Dims: []int{34, 34, 34}, Timesteps: 8, Scheme: NuCORALS, Workers: 2,
		// Small base parallelograms force a tiling with hundreds of tiles so
		// the O(1)-vs-O(tiles) distinction is observable.
		SchemeParams: map[string]int{"baseHeight": 2, "baseExtent": 8, "baseUnit": 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(func(pt []int) float64 { return float64(pt[0]) })
	out, err := s.Execute(nil, RunSpec{Timesteps: 8}) // build + warm the plan cache and scheduler pool
	if err != nil {
		t.Fatal(err)
	}
	rep := out.Report
	if rep.Tiles < 50 {
		t.Fatalf("want a tiling big enough to make the bound meaningful, got %d tiles", rep.Tiles)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := s.Execute(nil, RunSpec{Timesteps: 8}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state Execute: %.1f allocs/run over %d tiles", avg, rep.Tiles)
	// The bound is intentionally loose (goroutine spawns, report slices,
	// closures) but far below one allocation per tile.
	if avg > float64(rep.Tiles)/2 || avg > 150 {
		t.Fatalf("steady-state Execute allocates %.1f per run (%d tiles): plan cache or scheduler pool regressed", avg, rep.Tiles)
	}
}

// TestSchemeParams: tuner-style parameters reach the scheme (observable as
// a different tiling) without changing the numerics, and unknown keys are
// rejected up front.
func TestSchemeParams(t *testing.T) {
	run := func(params map[string]int) (Report, *Solver) {
		s, err := NewSolver(Config{
			Dims: []int{16, 16, 16}, Timesteps: 6, Scheme: NuCORALS,
			Workers: 2, SchemeParams: params,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.SetInitial(func(pt []int) float64 { return float64(pt[0]*3+pt[2]) * 0.125 })
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep, s
	}
	defRep, defS := run(nil)
	tunedRep, tunedS := run(map[string]int{"baseHeight": 2, "baseExtent": 4, "baseUnit": 8})
	if tunedRep.Tiles == defRep.Tiles {
		t.Errorf("SchemeParams did not reach the tiler: %d tiles either way", tunedRep.Tiles)
	}
	probe := []int{8, 8, 8}
	if a, b := defS.Value(probe), tunedS.Value(probe); a != b {
		t.Errorf("tuned parameters changed the numerics: %v vs %v", a, b)
	}

	if _, err := NewSolver(Config{
		Dims: []int{16, 16, 16}, Timesteps: 1, Scheme: NuCORALS,
		SchemeParams: map[string]int{"bogus": 3},
	}); err == nil {
		t.Error("unknown SchemeParams key accepted")
	}
	if _, err := NewSolver(Config{
		Dims: []int{16, 16, 16}, Timesteps: 1, Scheme: Naive,
		SchemeParams: map[string]int{"segment": 2},
	}); err == nil {
		t.Error("parameter for a parameterless scheme accepted")
	}
}
