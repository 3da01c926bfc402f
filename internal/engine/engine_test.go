package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/verify"
)

// sliceTiling cuts every timestep of the interior into per-step box tiles at
// the given cut coordinates along dimension 0 — the simplest legal tiling.
func sliceTiling(interior grid.Box, timesteps int, cuts []int, owners []int) []*spacetime.Tile {
	var tiles []*spacetime.Tile
	bounds := append([]int{interior.Lo[0]}, cuts...)
	bounds = append(bounds, interior.Hi[0])
	for t := 0; t < timesteps; t++ {
		for i := 0; i+1 < len(bounds); i++ {
			b := interior.Clone()
			b.Lo[0], b.Hi[0] = bounds[i], bounds[i+1]
			tile := spacetime.NewTileFromBox(b, t, 1, interior)
			if owners != nil {
				tile.Owner = owners[i%len(owners)]
			}
			tiles = append(tiles, tile)
		}
	}
	return spacetime.AssignIDs(tiles)
}

func TestBuildDepsSimpleChain(t *testing.T) {
	interior := grid.NewBox([]int{0}, []int{30})
	tiles := sliceTiling(interior, 2, []int{10, 20}, nil)
	deps := BuildDeps(tiles, 1, nil)
	// Tiles 0..2 at t=0 have no deps; tiles 3..5 at t=1 depend on their
	// spatial neighbours at t=0.
	for i := 0; i < 3; i++ {
		if len(deps[i]) != 0 {
			t.Errorf("tile %d deps = %v, want none", i, deps[i])
		}
	}
	// Middle tile at t=1 reads [9,21) so depends on all three below.
	if len(deps[4]) != 3 {
		t.Errorf("tile 4 deps = %v, want 3 deps", deps[4])
	}
	// Edge tile at t=1 ([0,10) grown to [-1,11)) touches tiles 0 and 1.
	if len(deps[3]) != 2 {
		t.Errorf("tile 3 deps = %v, want 2 deps", deps[3])
	}
}

func TestBuildDepsEmptyAndSingle(t *testing.T) {
	if deps := BuildDeps(nil, 1, nil); len(deps) != 0 {
		t.Errorf("nil tiles deps = %v", deps)
	}
	interior := grid.NewBox([]int{0}, []int{10})
	one := sliceTiling(interior, 1, nil, nil)
	deps := BuildDeps(one, 1, nil)
	if len(deps) != 1 || len(deps[0]) != 0 {
		t.Errorf("single tile deps = %v", deps)
	}
}

func TestBuildDepsMultiStepTileSelfOrdering(t *testing.T) {
	// A single tile spanning several timesteps has no external deps and
	// never depends on itself.
	interior := grid.NewBox([]int{0}, []int{10})
	tile := spacetime.NewTileFromBox(interior, 0, 5, interior)
	deps := BuildDeps(spacetime.AssignIDs([]*spacetime.Tile{tile}), 1, nil)
	if len(deps[0]) != 0 {
		t.Errorf("self-dependency recorded: %v", deps[0])
	}
}

func TestRunExecutesEveryTileOnceRespectingDeps(t *testing.T) {
	interior := grid.NewBox([]int{0}, []int{40})
	tiles := sliceTiling(interior, 5, []int{10, 20, 30}, []int{0, 1, 2, 3})
	var mu sync.Mutex
	doneAt := make(map[int]int)
	step := 0
	stats, err := Run(tiles, Config{
		Workers: 4,
		Order:   1,
		Exec: func(w int, tile *spacetime.Tile) int64 {
			mu.Lock()
			doneAt[tile.ID] = step
			step++
			mu.Unlock()
			return tile.Updates()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(doneAt) != len(tiles) {
		t.Fatalf("executed %d tiles, want %d", len(doneAt), len(tiles))
	}
	if stats.TotalUpdates != spacetime.TotalUpdates(tiles) {
		t.Errorf("updates = %d, want %d", stats.TotalUpdates, spacetime.TotalUpdates(tiles))
	}
	// Every tile must complete after all its dependencies.
	deps := BuildDeps(tiles, 1, nil)
	for i, ds := range deps {
		for _, j := range ds {
			if doneAt[i] < doneAt[j] {
				t.Fatalf("tile %d ran before its dependency %d", i, j)
			}
		}
	}
}

func TestRunOwnerAffinity(t *testing.T) {
	interior := grid.NewBox([]int{0}, []int{40})
	tiles := sliceTiling(interior, 3, []int{10, 20, 30}, []int{0, 1, 2, 3})
	var mu sync.Mutex
	ranOn := make(map[int]int)
	_, err := Run(tiles, Config{
		Workers: 4,
		Order:   1,
		Exec: func(w int, tile *spacetime.Tile) int64 {
			mu.Lock()
			ranOn[tile.ID] = w
			mu.Unlock()
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tile := range tiles {
		if got := ranOn[tile.ID]; got != tile.Owner {
			t.Fatalf("tile %d owned by %d ran on %d", tile.ID, tile.Owner, got)
		}
	}
}

func TestRunSharedQueueDrainsUnownedTiles(t *testing.T) {
	interior := grid.NewBox([]int{0}, []int{40})
	tiles := sliceTiling(interior, 2, []int{20}, nil) // owners default -1
	executed := 0
	var mu sync.Mutex
	_, err := Run(tiles, Config{
		Workers: 3,
		Order:   1,
		Exec: func(w int, tile *spacetime.Tile) int64 {
			mu.Lock()
			executed++
			mu.Unlock()
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if executed != len(tiles) {
		t.Fatalf("executed %d, want %d", executed, len(tiles))
	}
}

// A worker runs its lowest-ID ready tile, not the tile that became ready
// first: tile 1 becomes ready after tile 2 but precedes it in the plan.
func TestRunReadyTilesInPlanOrder(t *testing.T) {
	interior := grid.NewBox([]int{0}, []int{30})
	left := grid.NewBox([]int{0}, []int{10})
	for name, owner := range map[string]int{"owned": 0, "shared": -1} {
		t.Run(name, func(t *testing.T) {
			tiles := spacetime.AssignIDs([]*spacetime.Tile{
				spacetime.NewTileFromBox(left, 0, 1, interior),
				spacetime.NewTileFromBox(left, 1, 1, interior), // reads tile 0
				spacetime.NewTileFromBox(grid.NewBox([]int{20}, []int{30}), 0, 1, interior),
			})
			for _, tile := range tiles {
				tile.Owner = owner
			}
			var order []int
			_, err := Run(tiles, Config{
				Workers: 1,
				Order:   1,
				Exec: func(_ int, tile *spacetime.Tile) int64 {
					order = append(order, tile.ID)
					return 0
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(order) != "[0 1 2]" {
				t.Errorf("execution order %v, want [0 1 2]", order)
			}
		})
	}
}

// When Run derives the dependencies itself (Config.Deps nil), it checks
// them and rejects a cyclic tiling before executing any tile.
func TestRunDetectsCycle(t *testing.T) {
	// Two side-by-side box tiles spanning several timesteps each read the
	// other's earlier output: a tile-granular cycle.
	interior := grid.NewBox([]int{0}, []int{20})
	a := spacetime.NewTileFromBox(grid.NewBox([]int{0}, []int{10}), 0, 3, interior)
	b := spacetime.NewTileFromBox(grid.NewBox([]int{10}, []int{20}), 0, 3, interior)
	executed := 0
	_, err := Run(spacetime.AssignIDs([]*spacetime.Tile{a, b}), Config{
		Workers: 2,
		Order:   1,
		Exec:    func(int, *spacetime.Tile) int64 { executed++; return 0 },
	})
	if err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
	if executed != 0 {
		t.Fatalf("%d tiles executed before the cycle was reported", executed)
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(nil, Config{Workers: 1}); err == nil {
		t.Error("missing Exec not rejected")
	}
	if _, err := Run(nil, Config{Workers: 0, Exec: func(int, *spacetime.Tile) int64 { return 0 }}); err == nil {
		t.Error("zero workers not rejected")
	}
	st, err := Run(nil, Config{Workers: 2, Exec: func(int, *spacetime.Tile) int64 { return 0 }})
	if err != nil || st.TotalUpdates != 0 {
		t.Errorf("empty tiling: %v %v", st, err)
	}
}

// TestRunStencilMatchesReference is the keystone: executing a stencil
// through the engine with an arbitrary legal tiling must reproduce the
// serial reference bit-for-bit.
func TestRunStencilMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const timesteps = 6
	dims := []int{10, 12, 14}
	st := stencil.NewStar(3, 1)

	ref := grid.New(dims)
	ref.FillFunc(func(pt []int) float64 { return r.Float64() })
	got := ref.Clone()

	verify.Solve(stencil.NewOp(st, ref), timesteps)

	op := stencil.NewOp(st, got)
	interior := got.Interior(1)
	tiles := sliceTiling(interior, timesteps, []int{4, 7}, []int{0, 1, 2})
	_, err := Run(tiles, Config{
		Workers: 3,
		Order:   1,
		Exec: func(w int, tile *spacetime.Tile) int64 {
			var n int64
			for ts := tile.T0; ts < tile.T1(); ts++ {
				n += op.ApplyBox(tile.At(ts), ts)
			}
			return n
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Compare(got, ref, timesteps); err != nil {
		t.Fatal(err)
	}
}

// Property: random legal per-timestep tilings with random owners always
// reproduce the reference.
func TestRunRandomTilingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		dims := []int{4 + r.Intn(6), 4 + r.Intn(6)}
		timesteps := 1 + r.Intn(5)
		workers := 1 + r.Intn(4)
		st := stencil.NewStar(2, 1)

		ref := grid.New(dims)
		ref.FillFunc(func(pt []int) float64 { return r.Float64() })
		got := ref.Clone()
		verify.Solve(stencil.NewOp(st, ref), timesteps)

		op := stencil.NewOp(st, got)
		interior := got.Interior(1)

		// Random cuts along dim 0, new ones each timestep.
		var tiles []*spacetime.Tile
		for ts := 0; ts < timesteps; ts++ {
			x := interior.Lo[0]
			for x < interior.Hi[0] {
				w := 1 + r.Intn(interior.Hi[0]-x)
				b := interior.Clone()
				b.Lo[0], b.Hi[0] = x, x+w
				tile := spacetime.NewTileFromBox(b, ts, 1, interior)
				if r.Intn(2) == 0 {
					tile.Owner = r.Intn(workers)
				}
				tiles = append(tiles, tile)
				x += w
			}
		}
		if err := spacetime.ValidateCover(spacetime.AssignIDs(tiles), interior, 0, timesteps); err != nil {
			return false
		}
		_, err := Run(tiles, Config{
			Workers: workers,
			Order:   1,
			Exec: func(w int, tile *spacetime.Tile) int64 {
				var n int64
				for ts := tile.T0; ts < tile.T1(); ts++ {
					n += op.ApplyBox(tile.At(ts), ts)
				}
				return n
			},
		})
		if err != nil {
			return false
		}
		return verify.Compare(got, ref, timesteps) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
