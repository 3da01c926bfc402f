package engine

import (
	"math/rand"
	"testing"

	"nustencil/internal/affinity"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/tiling"
	"nustencil/internal/tiling/naive"
	"nustencil/internal/tiling/nucats"
	"nustencil/internal/tiling/nucorals"
	"nustencil/internal/verify"
)

// The static spin-flag executor reproduces the reference for the paper's
// NUMA-aware schemes (whose emission order is dependency-consistent).
func TestRunStaticMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name   string
		scheme tiling.Scheme
	}{
		{"naive", naive.New()},
		{"nuCATS", nucats.New()},
		{"nuCORALS", nucorals.New()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dims := []int{12, 12, 12}
			const timesteps = 7
			ref := grid.New(dims)
			ref.FillFunc(func([]int) float64 { return r.Float64() })
			got := ref.Clone()
			st := stencil.NewStar(3, 1)
			verify.Solve(stencil.NewOp(st, ref), timesteps)

			p := &tiling.Problem{
				Grid: got, Stencil: st, Timesteps: timesteps, Workers: 4,
				Topo:              affinity.Fixed{Cores: 4, Nodes: 2},
				LLCBytesPerWorker: 4 << 10,
			}
			tc.scheme.Distribute(p)
			tiles, err := tc.scheme.Tiles(p)
			if err != nil {
				t.Fatal(err)
			}
			op := stencil.NewOp(st, got)
			stats, err := RunStatic(tiles, Config{
				Workers: 4, Order: 1,
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
			if stats.TotalUpdates != spacetime.TotalUpdates(tiles) {
				t.Errorf("updates = %d", stats.TotalUpdates)
			}
			if err := verify.Compare(got, ref, timesteps); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// An emission order inconsistent with the dependencies must be rejected as
// a deadlock before any tile runs, not hang: worker 0's first tile needs
// worker 1's second and vice versa.
func TestRunStaticDetectsDeadlock(t *testing.T) {
	interior := grid.NewBox([]int{0}, []int{20})
	mk := func(lo, hi, t0, owner int) *spacetime.Tile {
		tile := spacetime.NewTileFromBox(grid.NewBox([]int{lo}, []int{hi}), t0, 1, interior)
		tile.Owner = owner
		return tile
	}
	// t=0 tiles owned crosswise AFTER the t=1 tiles in each worker's list:
	// worker 0 emits [t1 left, t0 right], worker 1 emits [t1 right, t0 left].
	tiles := []*spacetime.Tile{
		mk(0, 10, 1, 0),  // needs t0 left+right
		mk(10, 20, 0, 0), // t0 right, but listed after worker 0's t1 tile
		mk(10, 20, 1, 1),
		mk(0, 10, 0, 1),
	}
	executed := 0
	_, err := RunStatic(spacetime.AssignIDs(tiles), Config{
		Workers: 2, Order: 1,
		Exec: func(int, *spacetime.Tile) int64 { executed++; return 0 },
	})
	if err != ErrStaticDeadlock {
		t.Fatalf("err = %v, want ErrStaticDeadlock", err)
	}
	if executed != 0 {
		t.Fatalf("%d tiles executed before the deadlock was reported", executed)
	}
	// The same tiles in a consistent order (both t=0 tiles first) pass.
	tiles[0], tiles[1] = tiles[1], tiles[0]
	tiles[2], tiles[3] = tiles[3], tiles[2]
	spacetime.AssignIDs(tiles)
	if err := CheckStatic(tiles, BuildDeps(tiles, 1, nil), 2); err != nil {
		t.Fatalf("consistent order rejected: %v", err)
	}
}

func TestRunStaticRejectsUnowned(t *testing.T) {
	interior := grid.NewBox([]int{0}, []int{8})
	tile := spacetime.NewTileFromBox(interior, 0, 1, interior)
	_, err := RunStatic([]*spacetime.Tile{tile}, Config{
		Workers: 1, Order: 1,
		Exec: func(int, *spacetime.Tile) int64 { return 0 },
	})
	if err != ErrUnownedTile {
		t.Fatalf("err = %v, want ErrUnownedTile", err)
	}
}

func TestRunStaticEmptyAndValidation(t *testing.T) {
	st, err := RunStatic(nil, Config{Workers: 2, Exec: func(int, *spacetime.Tile) int64 { return 0 }})
	if err != nil || st.TotalUpdates != 0 {
		t.Errorf("empty: %v %v", st, err)
	}
	if _, err := RunStatic(nil, Config{Workers: 2}); err == nil {
		t.Error("missing Exec accepted")
	}
	if _, err := RunStatic(nil, Config{Workers: 0, Exec: func(int, *spacetime.Tile) int64 { return 0 }}); err == nil {
		t.Error("zero workers accepted")
	}
}
