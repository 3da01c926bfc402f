package nustencil

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"nustencil/internal/dist"
	"nustencil/internal/engine"
)

// solve3dDist mirrors solve3d on the distributed path: same grid,
// initial state, coefficients and source, executed with Ranks simulated
// nodes (and optional tuning through the test seam).
func solve3dDist(t *testing.T, scheme SchemeName, dims []int, ranks, workers int, banded, source bool, tune *distTuning, steps []int) []float64 {
	t.Helper()
	s, err := NewSolver(Config{
		Dims:              dims,
		Order:             1,
		Banded:            banded,
		Scheme:            scheme,
		Workers:           workers,
		Ranks:             ranks,
		ChareFactor:       3,
		NUMANodes:         2,
		LLCBytesPerWorker: 1 << 10,
	})
	if err != nil {
		t.Fatalf("%s: NewSolver: %v", scheme, err)
	}
	s.distTune = tune
	s.SetInitial(func(pt []int) float64 {
		return float64(pt[0]*73+pt[1]*37+pt[2])*0.01 - 1
	})
	if banded {
		if err := s.SetCoefficients(func(p int, pt []int) float64 {
			return 0.02 + 0.001*float64(p+pt[0]+pt[2])
		}); err != nil {
			t.Fatalf("%s: SetCoefficients: %v", scheme, err)
		}
	}
	if source {
		s.SetSource(func(pt []int) float64 { return 0.001 * float64(pt[1]+pt[2]) })
	}
	// Trace every parity run: the tracer must be a pure observer, so
	// bit-exactness with tracing enabled is part of the pinned contract.
	for _, n := range steps {
		if _, err := s.Execute(context.Background(), RunSpec{Timesteps: n, Trace: true}); err != nil {
			t.Fatalf("%s: Execute: %v", scheme, err)
		}
	}
	return s.Export(nil)
}

// TestDistributedParity3D pins the tentpole's correctness bar at the
// public API: a multi-rank overdecomposed Execute is bit-exact with the
// single-process Execute of every registered scheme, across the
// constant, banded, and source-term variants — including a run split
// over two Execute calls (the scatter/gather must respect buffer
// parity).
func TestDistributedParity3D(t *testing.T) {
	dims := []int{14, 13, 12}
	for _, v := range parity3dVariants {
		t.Run(v.name, func(t *testing.T) {
			for _, scheme := range Schemes() {
				ref := solve3d(t, scheme, dims, 4, v.banded, v.source)
				got := solve3dDist(t, scheme, dims, 2, 4, v.banded, v.source, nil, []int{6})
				if len(got) != len(ref) {
					t.Fatalf("%s: export length %d, want %d", scheme, len(got), len(ref))
				}
				for i := range got {
					if got[i] != ref[i] {
						t.Fatalf("%s: distributed diverges at index %d: %v != %v",
							scheme, i, got[i], ref[i])
					}
				}
			}
			// Split runs: 2 then 4 steps must land exactly where one 6-step
			// run does.
			ref := solve3dDist(t, Naive, dims, 3, 3, v.banded, v.source, nil, []int{6})
			got := solve3dDist(t, Naive, dims, 3, 3, v.banded, v.source, nil, []int{2, 4})
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("split distributed run diverges at index %d: %v != %v", i, got[i], ref[i])
				}
			}
		})
	}
}

// TestDistributedMigrationParity drives the CHANGELOAD pattern — a
// synthetic hotspot that jumps between halves of the chare set — with
// the greedy balancer rebalancing every other step, and pins that
// migrations actually happen and the result stays bit-exact.
func TestDistributedMigrationParity(t *testing.T) {
	dims := []int{14, 13, 12}
	ref := solve3d(t, Naive, dims, 1, false, false)
	var migrated *Solver
	tune := &distTuning{
		LBPeriod: 2,
		LoadFunc: func(chare, step int) int {
			// The hot half flips each 4-step phase, the stencil3d
			// CHANGELOAD shape.
			if (step/4)%2 == (chare/3)%2 {
				return 400000
			}
			return 0
		},
	}
	s, err := NewSolver(Config{
		Dims: dims, Order: 1, Workers: 4, Ranks: 2, ChareFactor: 3,
	})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	migrated = s
	migrated.distTune = tune
	migrated.SetInitial(func(pt []int) float64 {
		return float64(pt[0]*73+pt[1]*37+pt[2])*0.01 - 1
	})
	out, err := migrated.Execute(context.Background(), RunSpec{Timesteps: 6})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if out.Report.Updates == 0 {
		t.Fatalf("no updates reported")
	}
	if out.Report.Dist.Migrations == 0 {
		t.Fatalf("CHANGELOAD hotspot produced no migrations")
	}
	got := migrated.Export(nil)
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("migrated run diverges at index %d: %v != %v", i, got[i], ref[i])
		}
	}
}

// TestDistributedCounted pins the distributed counter path: counters
// carry the rank count and the transport's measured network bytes, and
// the attribution includes a NetBand bound.
func TestDistributedCounted(t *testing.T) {
	s, err := NewSolver(Config{
		Dims: []int{14, 13, 12}, Order: 1, Workers: 4, Ranks: 2, ChareFactor: 3,
	})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	s.SetInitial(func(pt []int) float64 { return float64(pt[0]+pt[1]+pt[2]) * 0.01 })
	out, err := s.Execute(context.Background(), RunSpec{Timesteps: 6, Counters: true})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	pc := out.Counters
	if pc == nil {
		t.Fatalf("counted distributed run returned no counters")
	}
	if pc.Updates() == 0 {
		t.Fatalf("counters account no updates")
	}
	if pc.c.Ranks != 2 {
		t.Fatalf("counters carry Ranks = %d, want 2", pc.c.Ranks)
	}
	if pc.c.NetworkBytes == 0 {
		t.Fatalf("counters carry no network bytes for a 2-rank run")
	}
	rep := pc.Bottleneck()
	found := false
	for _, b := range rep.Bounds {
		if b.Bound == "NetBand" {
			found = true
		}
	}
	if !found {
		t.Fatalf("attribution bounds lack NetBand: %+v", rep.Bounds)
	}
}

// TestDistributedValidation pins the Config surface: invalid rank
// combinations are rejected at construction, and tracing — rejected on
// distributed runs before the observability layer — now succeeds.
func TestDistributedValidation(t *testing.T) {
	base := Config{Dims: []int{10, 10, 10}, Workers: 2}
	bad := []Config{
		func() Config { c := base; c.Ranks = -1; return c }(),
		func() Config { c := base; c.Ranks = 2; c.ChareFactor = -3; return c }(),
		func() Config { c := base; c.Ranks = 2; c.Periodic = true; c.Scheme = Naive; return c }(),
	}
	for i, cfg := range bad {
		if _, err := NewSolver(cfg); err == nil {
			t.Fatalf("config %d (%+v) accepted", i, cfg)
		}
	}
	s, err := NewSolver(func() Config { c := base; c.Ranks = 2; return c }())
	if err != nil {
		t.Fatalf("valid distributed config rejected: %v", err)
	}
	out, err := s.Execute(context.Background(), RunSpec{Timesteps: 2, Trace: true})
	if err != nil {
		t.Fatalf("traced distributed run rejected: %v", err)
	}
	if out.Trace == nil {
		t.Fatalf("traced distributed run returned no trace")
	}
	if out.Report.Dist == nil || out.Report.Dist.Ranks != 2 {
		t.Fatalf("traced distributed run carries no dist stats: %+v", out.Report.Dist)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("solver poisoned by a traced run: %v", err)
	}
	if _, err := s.Execute(context.Background(), RunSpec{Timesteps: 2}); err != nil {
		t.Fatalf("Execute after traced run: %v", err)
	}
}

// TestDistributedTransportSeam pins that a custom transport is honored:
// the runtime routes every inter-rank halo through it.
func TestDistributedTransportSeam(t *testing.T) {
	tr := dist.NewLocalTransport(2)
	s, err := NewSolver(Config{Dims: []int{12, 12, 12}, Workers: 2, Ranks: 2})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	s.distTune = &distTuning{Transport: tr}
	s.SetInitial(func(pt []int) float64 { return float64(pt[0]) })
	if _, err := s.Execute(context.Background(), RunSpec{Timesteps: 3}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if st := tr.Stats(); st.Msgs == 0 || st.HaloBytes == 0 {
		t.Fatalf("custom transport saw no traffic: %+v", st)
	}
}

// TestDistributedPanicIsAnError pins panic isolation on the distributed
// path: a chare-step that panics fails its Execute with an
// *engine.PanicError instead of killing the process, leaves the solver
// unpoisoned with its state untouched, and the next Execute runs. The
// second fault strikes the last chare's last step of an even-length run,
// whose gather target is the buffer holding the current state, so a
// gather begun before every step had succeeded would show in Export.
func TestDistributedPanicIsAnError(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{12, 12, 12}, Workers: 2, Ranks: 2})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	s.SetInitial(func(pt []int) float64 { return float64(pt[0]*7+pt[1]*3+pt[2]) * 0.01 })
	var armed atomic.Bool
	var faultChare, faultStep int
	s.distTune = &distTuning{LoadFunc: func(chare, step int) int {
		if chare == faultChare && step == faultStep && armed.Swap(false) {
			panic("chare-step fault")
		}
		return 0
	}}
	fail := func(chare, step int) {
		t.Helper()
		faultChare, faultStep = chare, step
		armed.Store(true)
		before := s.Export(nil)
		_, err := s.Execute(context.Background(), RunSpec{Timesteps: 4})
		var pe *engine.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("Execute returned %v, want an *engine.PanicError", err)
		}
		if err := s.Err(); err != nil {
			t.Fatalf("a failed distributed run poisoned the solver: %v", err)
		}
		if !slices.Equal(s.Export(nil), before) {
			t.Fatalf("a failed distributed run changed the solver state")
		}
	}
	fail(1, 2)
	out, err := s.Execute(context.Background(), RunSpec{Timesteps: 4})
	if err != nil {
		t.Fatalf("Execute after the panic: %v", err)
	}
	fail(out.Report.Dist.Chares-1, 3)
	if _, err := s.Execute(context.Background(), RunSpec{Timesteps: 4}); err != nil {
		t.Fatalf("Execute after the last-step panic: %v", err)
	}
}

// TestDistributedAllocIndependentOfSteps pins that a distributed run
// allocates nothing per step: halos travel through buffers each chare
// keeps for the whole run, so a warm 40-step Execute on 66³ with 2 ranks
// of 8 chares allocates under 1 MB more than an 8-step one (a fresh
// payload per face per step came to 12.9 MB more).
func TestDistributedAllocIndependentOfSteps(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{66, 66, 66}, Workers: 2, Ranks: 2, ChareFactor: 8})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	s.SetInitial(func(pt []int) float64 { return float64(pt[0]*7+pt[1]*3+pt[2]) * 0.01 })
	alloc := func(steps int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := s.Execute(context.Background(), RunSpec{Timesteps: steps}); err != nil {
			t.Fatalf("Execute %d steps: %v", steps, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	alloc(8)
	alloc(40)
	short, long := alloc(8), alloc(40)
	if long > short+1<<20 {
		t.Errorf("a 40-step Execute allocated %d B, an 8-step one %d B; allocation grows with the step count", long, short)
	}
}

// TestDistributedMemoryIndependentOfSteps pins that a distributed
// Execute plans a bounded window of chare-steps, not the whole run: the
// live heap halfway through a 2048-step run on 16 chares exceeds that of
// a 16-step run by well under the 5 MB a plan of all 32,768 chare-steps
// holds.
func TestDistributedMemoryIndependentOfSteps(t *testing.T) {
	liveHeap := func(steps int) uint64 {
		s, err := NewSolver(Config{Dims: []int{18, 18, 18}, Workers: 2, Ranks: 2, ChareFactor: 8})
		if err != nil {
			t.Fatalf("NewSolver: %v", err)
		}
		s.SetInitial(func(pt []int) float64 { return float64(pt[0]+pt[1]+pt[2]) * 0.01 })
		var heap uint64
		s.distTune = &distTuning{LoadFunc: func(chare, step int) int {
			if chare == 0 && step == steps/2 {
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				heap = ms.HeapAlloc
			}
			return 0
		}}
		// Two collections empty the sync.Pools, so neither run starts
		// with the engine's scheduler buffers of an earlier test.
		runtime.GC()
		runtime.GC()
		if _, err := s.Execute(context.Background(), RunSpec{Timesteps: steps}); err != nil {
			t.Fatalf("Execute %d steps: %v", steps, err)
		}
		return heap
	}
	short, long := liveHeap(16), liveHeap(2048)
	if long > short+2<<20 {
		t.Errorf("live heap mid-run: %d B at 16 steps, %d B at 2048 steps; planning memory grows with the run length", short, long)
	}
}

func ExampleConfig_distributed() {
	s, _ := NewSolver(Config{
		Dims:    []int{34, 34, 34},
		Workers: 4,
		Ranks:   2, // two simulated nodes, halo exchange between them
	})
	s.SetInitial(func(pt []int) float64 { return float64(pt[0]) })
	out, _ := s.Execute(nil, RunSpec{Timesteps: 4})
	fmt.Println(out.Report.Updates > 0)
	// Output: true
}
