package engine

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
)

// Stress: thousands of tiny tiles, more workers than host CPUs, mixed
// owned/shared tiles — every tile must run exactly once after its deps.
func TestRunStressManyTilesManyWorkers(t *testing.T) {
	const (
		cells     = 240
		timesteps = 24
		workers   = 12
	)
	r := rand.New(rand.NewSource(77))
	interior := grid.NewBox([]int{0}, []int{cells})
	var tiles []*spacetime.Tile
	for ts := 0; ts < timesteps; ts++ {
		x := 0
		for x < cells {
			w := 1 + r.Intn(20)
			b := grid.NewBox([]int{x}, []int{min(x+w, cells)})
			tile := spacetime.NewTileFromBox(b, ts, 1, interior)
			if r.Intn(3) > 0 {
				tile.Owner = r.Intn(workers)
			}
			tiles = append(tiles, tile)
			x += w
		}
	}
	spacetime.AssignIDs(tiles)
	deps := BuildDeps(tiles, 1, nil)

	var mu sync.Mutex
	doneAt := make([]int, len(tiles))
	step := 0
	stats, err := Run(tiles, Config{
		Workers: workers,
		Order:   1,
		Exec: func(w int, tile *spacetime.Tile) int64 {
			mu.Lock()
			step++
			doneAt[tile.ID] = step
			mu.Unlock()
			return tile.Updates()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalUpdates != int64(cells*timesteps) {
		t.Fatalf("updates = %d, want %d", stats.TotalUpdates, cells*timesteps)
	}
	for i, ds := range deps {
		for _, j := range ds {
			if doneAt[i] < doneAt[j] {
				t.Fatalf("tile %d finished before dependency %d", i, j)
			}
		}
	}
	if im := stats.Imbalance(); im < 1 {
		t.Errorf("imbalance = %v, want >= 1", im)
	}
}

// Pin smoke test: pinning must not change results or hang (best-effort on
// non-Linux and for virtual cores beyond the host).
func TestRunWithPinning(t *testing.T) {
	interior := grid.NewBox([]int{0}, []int{40})
	var tiles []*spacetime.Tile
	for ts := 0; ts < 4; ts++ {
		for w := 0; w < 4; w++ {
			b := grid.NewBox([]int{w * 10}, []int{(w + 1) * 10})
			tile := spacetime.NewTileFromBox(b, ts, 1, interior)
			tile.Owner = w
			tiles = append(tiles, tile)
		}
	}
	stats, err := Run(spacetime.AssignIDs(tiles), Config{
		Workers: 4,
		Order:   1,
		Pin:     true,
		Exec:    func(int, *spacetime.Tile) int64 { return 1 },
	})
	if err != nil || stats.TotalUpdates != 16 {
		t.Fatalf("pinned run: %v, %v", stats, err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// randomDAG builds n trivial tiles with random owners (shared with
// probability 1/4) and a random acyclic dependency graph (edges only from
// higher to lower indices), exercising the scheduler independently of tiling
// geometry via Config.Deps.
func randomDAG(r *rand.Rand, n, workers int) ([]*spacetime.Tile, [][]int) {
	interior := grid.NewBox([]int{0}, []int{n})
	tiles := make([]*spacetime.Tile, n)
	for i := range tiles {
		b := grid.NewBox([]int{i}, []int{i + 1})
		tiles[i] = spacetime.NewTileFromBox(b, 0, 1, interior)
		if r.Intn(4) == 0 {
			tiles[i].Owner = -1
		} else {
			tiles[i].Owner = r.Intn(workers)
		}
	}
	deps := make([][]int, n)
	for i := 1; i < n; i++ {
		for _, j := range r.Perm(i)[:r.Intn(min(i, 4)+1)] {
			deps[i] = append(deps[i], j)
		}
	}
	return tiles, deps
}

// Scheduler stress decoupled from geometry: random DAGs injected through
// Config.Deps, 1–16 workers, owned and shared tiles mixed. Every tile must
// run exactly once, after all of its dependencies.
func TestRunRandomDAGs(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	for trial := 0; trial < 30; trial++ {
		n := 20 + r.Intn(180)
		workers := 1 + r.Intn(16)
		tiles, deps := randomDAG(r, n, workers)

		var mu sync.Mutex
		step := 0
		doneAt := make([]int, n)
		runs := make([]int, n)
		_, err := Run(tiles, Config{
			Workers: workers,
			Deps:    deps,
			Exec: func(w int, tile *spacetime.Tile) int64 {
				mu.Lock()
				step++
				doneAt[tile.ID] = step
				runs[tile.ID]++
				mu.Unlock()
				return 1
			},
		})
		if err != nil {
			t.Fatalf("trial %d (n=%d workers=%d): %v", trial, n, workers, err)
		}
		for i := range runs {
			if runs[i] != 1 {
				t.Fatalf("trial %d: tile %d ran %d times", trial, i, runs[i])
			}
			for _, j := range deps[i] {
				if doneAt[i] < doneAt[j] {
					t.Fatalf("trial %d: tile %d finished before dependency %d", trial, i, j)
				}
			}
		}
	}
}

// Forced cycle injection: a random DAG plus one back edge (a 2-cycle, a
// self-loop, or a long cycle through the chain of earlier tiles) must be
// reported by CheckDeps as ErrCycle, and the DAG itself must pass.
func TestRunDetectsInjectedCycle(t *testing.T) {
	r := rand.New(rand.NewSource(321))
	for trial := 0; trial < 60; trial++ {
		n := 20 + r.Intn(100)
		_, deps := randomDAG(r, n, 1+r.Intn(16))
		if err := CheckDeps(deps); err != nil {
			t.Fatalf("trial %d: random DAG rejected: %v", trial, err)
		}
		a := r.Intn(n - 1)
		b := a + 1 + r.Intn(n-a-1)
		switch trial % 3 {
		case 0: // a -> b -> a
			deps[b] = append(deps[b], a)
			deps[a] = append(deps[a], b)
		case 1: // a depends on itself
			deps[a] = append(deps[a], a)
		case 2: // a+1..b each depend on their predecessor, a on b
			for i := a + 1; i <= b; i++ {
				deps[i] = append(deps[i], i-1)
			}
			deps[a] = append(deps[a], b)
		}
		if err := CheckDeps(deps); err != ErrCycle {
			t.Fatalf("trial %d (n=%d a=%d b=%d): err = %v, want ErrCycle", trial, n, a, b, err)
		}
	}
}

// TestRunNoFalseCycle runs many tiny valid DAGs with more workers than
// ready tiles, so workers park and wake constantly; half of the runs use an
// Exec that yields, widening every window between a park decision and a
// peer's pop. Run leaves liveness to the plan-time check, so on these
// acyclic plans every run must succeed.
func TestRunNoFalseCycle(t *testing.T) {
	runs := 200_000
	if testing.Short() {
		runs = 20_000
	}
	r := rand.New(rand.NewSource(99))
	plain := func(int, *spacetime.Tile) int64 { return 1 }
	yield := func(int, *spacetime.Tile) int64 { runtime.Gosched(); return 1 }
	for i := 0; i < runs; i++ {
		n := 2 + r.Intn(12)
		workers := 2 + r.Intn(7)
		tiles, deps := randomDAG(r, n, workers)
		exec := plain
		if i%2 == 1 {
			exec = yield
		}
		if _, err := Run(tiles, Config{Workers: workers, Deps: deps, Exec: exec}); err != nil {
			t.Fatalf("run %d (n=%d workers=%d): %v", i, n, workers, err)
		}
	}
}
