package perfcount

import (
	"math"
	"testing"
	"time"

	"nustencil/internal/engine"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
)

// sliceTiling cuts a 1D interior into slabs replicated over timesteps,
// mirroring the engine tests' helper.
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

// TestCollectorOwnershipSplit pins the page-ownership attribution with a
// hand-built grid: 64 cells, 8-cell pages, the low half first-touched by
// node 0 and the high half by node 1.
func TestCollectorOwnershipSplit(t *testing.T) {
	g := grid.NewWithPageSize([]int{64}, 8)
	g.Touch(grid.NewBox([]int{0}, []int{32}), 0)
	g.Touch(grid.NewBox([]int{32}, []int{64}), 1)

	c, err := NewCollector(Config{
		Workers:            2,
		Nodes:              2,
		NodeOfWorker:       func(w int) int { return w },
		FlopsPerUpdate:     13,
		MainBytesPerUpdate: 16,
		LLCBytesPerUpdate:  24,
		Grid:               g,
	})
	if err != nil {
		t.Fatal(err)
	}

	interior := g.Bounds()
	// Tile A: [0,32) — all pages node 0; executed by worker 0 (node 0).
	a := spacetime.NewTileFromBox(grid.NewBox([]int{0}, []int{32}), 0, 1, interior)
	c.RecordTile(0, a, a.Updates(), 5*time.Microsecond)
	// Tile B: [16,48) — half node 0, half node 1; executed by worker 1 (node 1).
	b := spacetime.NewTileFromBox(grid.NewBox([]int{16}, []int{48}), 0, 1, interior)
	c.RecordTile(1, b, b.Updates(), 9*time.Microsecond)

	out := c.Counters()
	if out.Updates != 64 {
		t.Fatalf("updates = %d, want 64", out.Updates)
	}
	// Tile A: 32·16 = 512 bytes, all on node 0, local to worker 0.
	// Tile B: 512 bytes, 256 from node 0 (remote), 256 from node 1 (local).
	wantNode := []NodeCounters{
		{Node: 0, LocalBytes: 512, RemoteBytes: 0, ControllerBytes: 768},
		{Node: 1, LocalBytes: 256, RemoteBytes: 256, ControllerBytes: 256},
	}
	for i, want := range wantNode {
		if out.PerNode[i] != want {
			t.Errorf("node %d = %+v, want %+v", i, out.PerNode[i], want)
		}
	}
	if got := out.Flops(); got != 64*13 {
		t.Errorf("flops = %d, want %d", got, 64*13)
	}
	if got := out.LLCBytes(); got != 64*24 {
		t.Errorf("llc bytes = %d, want %d", got, 64*24)
	}
	if hot, bytes := out.HottestNode(); hot != 0 || bytes != 768 {
		t.Errorf("hottest = node %d with %d bytes, want node 0 with 768", hot, bytes)
	}
	h := out.Latency()
	if h.N != 2 || h.Sum != 14*time.Microsecond {
		t.Errorf("latency N=%d Sum=%v, want 2 / 14µs", h.N, h.Sum)
	}
	if out.PerWorker[0].Tiles != 1 || out.PerWorker[1].Tiles != 1 {
		t.Errorf("per-worker tiles = %d,%d, want 1,1",
			out.PerWorker[0].Tiles, out.PerWorker[1].Tiles)
	}
}

// TestCollectorUntouchedPages: traffic over pages nobody touched is
// attributed to node 0, where a serial initialization would fault them.
func TestCollectorUntouchedPages(t *testing.T) {
	g := grid.NewWithPageSize([]int{64}, 8)
	g.Touch(grid.NewBox([]int{32}, []int{64}), 1) // low half left untouched

	c, err := NewCollector(Config{
		Workers:            1,
		Nodes:              2,
		NodeOfWorker:       func(int) int { return 1 },
		MainBytesPerUpdate: 8,
		Grid:               g,
	})
	if err != nil {
		t.Fatal(err)
	}
	tile := spacetime.NewTileFromBox(grid.NewBox([]int{0}, []int{64}), 0, 1, g.Bounds())
	c.RecordTile(0, tile, tile.Updates(), time.Microsecond)
	out := c.Counters()
	if out.PerNode[0].ControllerBytes != 256 || out.PerNode[1].ControllerBytes != 256 {
		t.Errorf("controller split = %d/%d, want 256/256",
			out.PerNode[0].ControllerBytes, out.PerNode[1].ControllerBytes)
	}
	// The lone worker sits on node 1: the untouched half is remote to it.
	if out.PerNode[1].LocalBytes != 256 || out.PerNode[1].RemoteBytes != 256 {
		t.Errorf("requester split = local %d remote %d, want 256/256",
			out.PerNode[1].LocalBytes, out.PerNode[1].RemoteBytes)
	}
}

// runInstrumented runs the engine over a real tiling with the collector
// folded into Exec, the way the solver wires it.
func runInstrumented(t *testing.T) (*Collector, []*spacetime.Tile) {
	t.Helper()
	g := grid.NewWithPageSize([]int{80}, 8)
	g.Touch(grid.NewBox([]int{0}, []int{40}), 0)
	g.Touch(grid.NewBox([]int{40}, []int{80}), 1)

	const workers = 4
	col, err := NewCollector(Config{
		Workers:            workers,
		Nodes:              2,
		NodeOfWorker:       func(w int) int { return w / 2 },
		FlopsPerUpdate:     5,
		MainBytesPerUpdate: 3.5,
		LLCBytesPerUpdate:  10.25,
		Grid:               g,
	})
	if err != nil {
		t.Fatal(err)
	}

	interior := grid.NewBox([]int{1}, []int{79})
	tiles := sliceTiling(interior, 6, []int{20, 40, 60}, []int{0, 1, 2, 3})
	cfg := engine.Config{
		Workers:     workers,
		Order:       1,
		SampleEvery: 50 * time.Microsecond,
		OnSample: func(s engine.Sample) {
			col.RecordSample(Sample{Elapsed: s.Elapsed, ReadyTiles: s.Ready, IdleWorkers: s.Idle})
		},
		Exec: func(w int, tile *spacetime.Tile) int64 {
			t0 := time.Now()
			time.Sleep(100 * time.Microsecond) // give the sampler something to see
			u := tile.Updates()
			col.RecordTile(w, tile, u, time.Since(t0))
			return u
		},
	}
	if _, err := engine.Run(tiles, cfg); err != nil {
		t.Fatal(err)
	}
	return col, tiles
}

// The subtest is named "dynamic", the scheduler's name, so recorded test
// IDs stay valid.
func TestCollectorWithEngine(t *testing.T) {
	t.Run("dynamic", func(t *testing.T) {
		col, tiles := runInstrumented(t)
		out := col.Counters()

		var updates int64
		for _, tile := range tiles {
			updates += tile.Updates()
		}
		if out.Updates != updates {
			t.Errorf("updates = %d, want %d", out.Updates, updates)
		}
		if got := out.Tiles(); got != int64(len(tiles)) {
			t.Errorf("tiles = %d, want %d", got, len(tiles))
		}
		if h := out.Latency(); h.N != int64(len(tiles)) {
			t.Errorf("latency N = %d, want %d", h.N, len(tiles))
		}

		// Conservation against the pricing: total main bytes equal
		// updates × rate, and both per-node views agree, regardless of
		// which worker ran which tile.
		want := float64(updates) * 3.5
		slack := float64(out.Workers * out.Nodes) // one rounding per shard counter
		if got := float64(out.MainBytes()); math.Abs(got-want) > slack {
			t.Errorf("controller sum = %.0f, want %.0f ± %.0f", got, want, slack)
		}
		if got := float64(out.LocalBytes() + out.RemoteBytes()); math.Abs(got-want) > slack {
			t.Errorf("local+remote = %.0f, want %.0f ± %.0f", got, want, slack)
		}
		wantLLC := float64(updates) * 10.25
		if got := float64(out.LLCBytes()); math.Abs(got-wantLLC) > slack {
			t.Errorf("llc = %.0f, want %.0f ± %.0f", got, wantLLC, slack)
		}
		if got := out.Flops(); got != updates*5 {
			t.Errorf("flops = %d, want %d", got, updates*5)
		}

		// Ownership is split half and half, so controllers split near
		// evenly (the interior trims one page-straddling cell per edge).
		n0 := float64(out.PerNode[0].ControllerBytes)
		n1 := float64(out.PerNode[1].ControllerBytes)
		if math.Abs(n0-n1) > 0.1*want {
			t.Errorf("controller split %0.f/%0.f too uneven for a half/half grid", n0, n1)
		}

		if len(out.Samples) == 0 {
			t.Errorf("no scheduler samples recorded")
		}
		for _, s := range out.Samples {
			if s.ReadyTiles < 0 || s.ReadyTiles > len(tiles) {
				t.Errorf("sample ready = %d out of range", s.ReadyTiles)
			}
			if s.IdleWorkers < 0 || s.IdleWorkers > out.Workers {
				t.Errorf("sample idle = %d out of range", s.IdleWorkers)
			}
		}
	})
}

func TestNewCollectorValidates(t *testing.T) {
	if _, err := NewCollector(Config{Workers: 0}); err == nil {
		t.Error("want error for zero workers")
	}
	c, err := NewCollector(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// No grid, no nodes: everything lands local on node 0.
	tile := spacetime.NewTileFromBox(grid.NewBox([]int{0}, []int{8}), 0, 1, grid.NewBox([]int{0}, []int{8}))
	c.cfg.MainBytesPerUpdate = 2
	c.RecordTile(1, tile, 8, time.Microsecond)
	out := c.Counters()
	if out.Nodes != 1 || out.PerNode[0].LocalBytes != 16 || out.PerNode[0].RemoteBytes != 0 {
		t.Errorf("default-node counters = %+v", out.PerNode)
	}
}
