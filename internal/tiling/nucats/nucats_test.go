package nucats

import (
	"sort"
	"testing"

	"nustencil/internal/affinity"
	"nustencil/internal/engine"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/tiling"
	"nustencil/internal/tiling/cats"
	"nustencil/internal/tiling/schemetest"
)

func TestNuCATSConformance(t *testing.T) {
	schemetest.Run(t, New())
}

func TestNuCATSMetadata(t *testing.T) {
	s := New()
	if s.Name() != "nuCATS" || !s.NUMAAware() {
		t.Error("metadata wrong")
	}
}

func problem(dims []int, workers, timesteps int, llc int64) *tiling.Problem {
	return &tiling.Problem{
		Grid:              grid.New(dims),
		Stencil:           stencil.NewStar(len(dims), 1),
		Timesteps:         timesteps,
		Workers:           workers,
		Topo:              affinity.Fixed{Cores: workers, Nodes: 2},
		LLCBytesPerWorker: llc,
	}
}

func TestPlanCase1TileCountDividesWorkers(t *testing.T) {
	// Small cache -> many tiles; the plan must round the count up to a
	// multiple of the worker count.
	p := problem([]int{102, 22, 22}, 4, 5, 4<<10)
	reco := cats.RecommendedWidth(p)
	n0 := (100 + reco - 1) / reco
	if n0 <= 4 {
		t.Skip("cache too large for case 1 on this geometry")
	}
	pl := PlanTiles(p)
	if pl.Tiles%4 != 0 {
		t.Errorf("tiles = %d, not a multiple of 4 workers", pl.Tiles)
	}
	if pl.HalveWavefrontDim {
		t.Error("case 1 must not halve the wavefront dimension")
	}
	if pl.Tiles < n0 {
		t.Errorf("adjustment must shrink the wavefront (tiles %d < initial %d)", pl.Tiles, n0)
	}
}

func TestPlanCase2GrowToWorkerCount(t *testing.T) {
	// Huge cache -> wide wavefront -> fewer tiles than workers; the extent
	// per worker stays comfortably above the heuristic minimum, so the plan
	// grows the tile count to match the workers.
	p := problem([]int{102, 10, 10}, 8, 2, 1<<30)
	pl := PlanTiles(p)
	if pl.Tiles != 8 || pl.HalveWavefrontDim {
		t.Errorf("plan = %+v, want 8 plain tiles", pl)
	}
}

func TestPlanCase2HalvesWavefrontDim(t *testing.T) {
	// Many workers on a small extent: one slab per worker would be
	// narrower than the heuristic minimum, so the plan stops at half the
	// workers and halves the wavefront-traversal dimension.
	p := problem([]int{34, 34, 34}, 16, 2, 1<<30)
	reco := cats.RecommendedWidth(p)
	if reco <= 32/16*4 {
		t.Skipf("recommendation %d too small to trigger the heuristic", reco)
	}
	pl := PlanTiles(p)
	if !pl.HalveWavefrontDim {
		t.Fatalf("plan = %+v, want wavefront-dim halving", pl)
	}
	if pl.Tiles != 8 {
		t.Errorf("tiles = %d, want workers/2 = 8", pl.Tiles)
	}
	// Total tiles after halving equals the worker count.
	if got := len(pl.Owners(16)); got != 16 {
		t.Errorf("total tiles = %d, want 16", got)
	}
}

func TestPlanOwnersContiguous(t *testing.T) {
	pl := Plan{Tiles: 8}
	owners := pl.Owners(4)
	want := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i, w := range want {
		if owners[i] != w {
			t.Fatalf("owners = %v, want %v", owners, want)
		}
	}
}

func TestNuCATSOwnersAreContiguousGroups(t *testing.T) {
	p := problem([]int{102, 22, 22}, 4, 3, 4<<10)
	tiles, err := New().Tiles(p)
	if err != nil {
		t.Fatal(err)
	}
	// Within each time segment and wavefront chunk, sweep the slabs left to
	// right: owners must be non-decreasing (contiguous subdomain groups),
	// unlike CATS' round robin.
	type level struct{ t0, chunkLo int }
	groups := map[level][]*spacetime.Tile{}
	wf := cats.WavefrontDim(3)
	for _, tile := range tiles {
		l := level{tile.T0, tile.At(tile.T0).Lo[wf]}
		groups[l] = append(groups[l], tile)
	}
	if len(groups) < 2 {
		t.Fatalf("%d (segment, chunk) groups: plan not cut into wavefront chunks", len(groups))
	}
	for l, g := range groups {
		sort.Slice(g, func(a, b int) bool {
			return g[a].At(l.t0).Lo[cats.TilingDim] < g[b].At(l.t0).Lo[cats.TilingDim]
		})
		for k := 1; k < len(g); k++ {
			if g[k].Owner < g[k-1].Owner {
				t.Fatalf("segment %d chunk at %d: owner %d after %d: not contiguous",
					l.t0, l.chunkLo, g[k].Owner, g[k-1].Owner)
			}
		}
	}
}

// TestNuCATSPipelineKeepsWorkersBusy list-schedules the large-7pt plan
// (258³, 2 workers on 2 nodes, 16 steps, the default 1 MiB cache hint)
// the way the engine runs it: each worker takes its lowest-ID ready tile,
// and a tile costs its update count. Chunked slabs let the second worker
// start one chunk after the first instead of one whole slab segment after
// it, so the makespan stays close to half the total work.
func TestNuCATSPipelineKeepsWorkersBusy(t *testing.T) {
	const workers = 2
	p := problem([]int{258, 258, 258}, workers, 16, 1<<20)
	tiles, err := New().Tiles(p)
	if err != nil {
		t.Fatal(err)
	}
	deps := engine.BuildDeps(tiles, 1, nil)
	makespan, total := listSchedule(t, tiles, deps, workers)
	ratio := float64(makespan) / (float64(total) / workers)
	t.Logf("%d tiles: makespan / ideal = %.3f", len(tiles), ratio)
	if ratio > 1.15 {
		t.Errorf("makespan %.3f × the ideal %d updates per worker, want <= 1.15", ratio, total/workers)
	}
}

// listSchedule simulates dependency-driven execution of tiles on workers:
// each idle worker starts the lowest-ID ready tile it owns, and a tile
// runs for Updates() time units. It returns the makespan and the summed
// tile costs.
func listSchedule(t *testing.T, tiles []*spacetime.Tile, deps [][]int, workers int) (makespan, total int64) {
	t.Helper()
	pending := make([]int, len(tiles))
	dependents := make([][]int, len(tiles))
	ready := make([]bool, len(tiles))
	for i, ds := range deps {
		pending[i] = len(ds)
		ready[i] = len(ds) == 0
		for _, j := range ds {
			dependents[j] = append(dependents[j], i)
		}
		total += tiles[i].Updates()
	}
	running := make([]int, workers)
	end := make([]int64, workers)
	for w := range running {
		running[w] = -1
	}
	var now int64
	for done := 0; done < len(tiles); {
		for w := range running {
			if running[w] >= 0 {
				continue
			}
			for i, r := range ready {
				if r && tiles[i].Owner%workers == w {
					ready[i], running[w], end[w] = false, i, now+tiles[i].Updates()
					break
				}
			}
		}
		next := -1
		for w, i := range running {
			if i >= 0 && (next < 0 || end[w] < end[next]) {
				next = w
			}
		}
		if next < 0 {
			t.Fatal("list schedule stalled: no tile ready or running")
		}
		i := running[next]
		now, running[next] = end[next], -1
		done++
		for _, d := range dependents[i] {
			if pending[d]--; pending[d] == 0 {
				ready[d] = true
			}
		}
	}
	return now, total
}

func TestNuCATSDistributePlacesSlabsOnOwnerNodes(t *testing.T) {
	// A large cache gives wide slabs (≈25 planes each), so page-granular
	// first touch puts the bulk of each slab on its owner's node.
	p := problem([]int{102, 22, 22}, 4, 3, 1<<20)
	New().Distribute(p)
	tiles, err := New().Tiles(p)
	if err != nil {
		t.Fatal(err)
	}
	// For each worker's first slab segment, most pages should be on the
	// worker's node.
	checked := 0
	for _, tile := range tiles {
		if tile.T0 != 0 {
			continue
		}
		node := p.NodeOfWorker(tile.Owner)
		if f := p.Grid.LocalFraction(tile.At(0), node, 2); f < 0.5 {
			t.Errorf("slab at %v: local fraction %v on node %d", tile.At(0), f, node)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no t=0 tiles found")
	}
}
