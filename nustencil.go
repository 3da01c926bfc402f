package nustencil

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"nustencil/internal/affinity"
	"nustencil/internal/engine"
	"nustencil/internal/grid"
	"nustencil/internal/memsim"
	"nustencil/internal/perfcount"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/tiling"
	"nustencil/internal/tiling/cats"
	"nustencil/internal/tiling/corals"
	"nustencil/internal/tiling/diamond"
	"nustencil/internal/tiling/naive"
	"nustencil/internal/tiling/nucats"
	"nustencil/internal/tiling/nucorals"
	"nustencil/internal/tiling/trapezoid"
	"nustencil/internal/trace"
)

// SchemeName selects a tiling scheme.
type SchemeName string

// The available schemes. NuCATS and NuCORALS are the paper's contributions;
// the rest are the comparison schemes of its evaluation.
const (
	Naive    SchemeName = "NaiveSSE"
	CATS     SchemeName = "CATS"
	NuCATS   SchemeName = "nuCATS"
	CORALS   SchemeName = "CORALS"
	NuCORALS SchemeName = "nuCORALS"
	Pochoir  SchemeName = "Pochoir"
	PLuTo    SchemeName = "PLuTo"
)

// Schemes lists every scheme name.
func Schemes() []SchemeName {
	return []SchemeName{Naive, CATS, NuCATS, CORALS, NuCORALS, Pochoir, PLuTo}
}

// schemeParamKeys lists the Config.SchemeParams keys each scheme accepts;
// they match the tuner's search-space names (internal/tune.SpaceFor), so a
// tuned Setting plugs straight into a Config.
var schemeParamKeys = map[SchemeName][]string{
	CATS:     {"segment", "width"},
	NuCATS:   {"segment"},
	NuCORALS: {"tau", "baseHeight", "baseExtent", "baseUnit"},
	PLuTo:    {"timeBlock", "width"},
}

func schemeFor(name SchemeName, params map[string]int) (tiling.Scheme, error) {
	allowed := schemeParamKeys[name]
	for k := range params {
		ok := false
		for _, a := range allowed {
			if k == a {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("nustencil: scheme %s does not accept parameter %q (accepts %v)", name, k, allowed)
		}
	}
	switch name {
	case Naive:
		return naive.New(), nil
	case CATS:
		return &cats.Scheme{Params: cats.Params{
			SegmentHeight: params["segment"],
			WidthOverride: params["width"],
		}}, nil
	case NuCATS:
		return &nucats.Scheme{Params: cats.Params{
			SegmentHeight: params["segment"],
		}}, nil
	case CORALS:
		return corals.New(), nil
	case NuCORALS:
		return &nucorals.Scheme{Params: nucorals.Params{
			Tau:            params["tau"],
			BaseHeight:     params["baseHeight"],
			BaseExtent:     params["baseExtent"],
			BaseUnitExtent: params["baseUnit"],
		}}, nil
	case Pochoir:
		return trapezoid.New(), nil
	case PLuTo:
		return &diamond.Scheme{Params: diamond.Params{
			TimeBlock: params["timeBlock"],
			Width:     params["width"],
		}}, nil
	default:
		return nil, fmt.Errorf("nustencil: unknown scheme %q", name)
	}
}

// Config describes an iterative stencil computation. It marshals to
// stable snake_case JSON (the job server's wire form); SchemeParams
// serializes with sorted keys (encoding/json sorts map keys), so an
// encoded Config is deterministic byte for byte and a job built from it
// replays exactly.
type Config struct {
	// Dims are the grid dimensions including the fixed boundary ring of
	// width Order; the last dimension is unit stride. Required.
	Dims []int `json:"dims"`
	// Order is the stencil order s (default 1). The star stencil has
	// 1 + 2·len(Dims)·Order points.
	Order int `json:"order,omitempty"`
	// Banded selects per-cell variable coefficients (a product with a
	// sparse banded matrix). Initialize them with Solver.SetCoefficients.
	Banded bool `json:"banded,omitempty"`
	// Coeffs are the constant stencil coefficients in stencil point order;
	// nil uses normalized Jacobi weights. Ignored when Banded.
	Coeffs []float64 `json:"coeffs,omitempty"`
	// Timesteps is the number of Jacobi iterations Run performs. Required.
	Timesteps int `json:"timesteps,omitempty"`
	// Scheme selects the tiling scheme (default NuCORALS).
	Scheme SchemeName `json:"scheme,omitempty"`
	// Workers is the thread count n (default runtime.NumCPU()).
	Workers int `json:"workers,omitempty"`
	// NUMANodes sets the modeled node count for page-ownership accounting
	// (default 1). Workers spread over nodes socket by socket.
	NUMANodes int `json:"numa_nodes,omitempty"`
	// LLCBytesPerWorker is the cache-size hint for the cache-aware schemes
	// (default 1 MiB).
	LLCBytesPerWorker int64 `json:"llc_bytes_per_worker,omitempty"`
	// PinThreads best-effort pins worker OS threads to CPUs (Linux).
	PinThreads bool `json:"pin_threads,omitempty"`
	// Periodic selects wrapped (torus) boundaries instead of the default
	// fixed Dirichlet ring: every cell updates and neighbour reads wrap
	// across the seams. Only the Naive scheme supports periodic problems
	// (the temporal blocking geometry assumes a flat space); with Periodic
	// set and no explicit Scheme, Naive is the default.
	Periodic bool `json:"periodic,omitempty"`
	// StaticSchedule executes with the paper's literal synchronization
	// structure — per-worker static tile lists and spin-wait completion
	// flags (Section III-B) — instead of the dependency-driven scheduler.
	// Requires a scheme whose tiles all have owners (not CORALS/Pochoir).
	StaticSchedule bool `json:"static_schedule,omitempty"`
	// SchemeParams overrides the selected scheme's tunable parameters by
	// name, using the same keys as the auto-tuner's search spaces
	// (e.g. nuCORALS: tau, baseHeight, baseExtent, baseUnit; nuCATS:
	// segment) — a tuned Setting plugs in directly. Zero or absent values
	// keep the scheme's defaults; unknown keys are rejected by NewSolver.
	SchemeParams map[string]int `json:"scheme_params,omitempty"`
	// Ranks, when > 1, executes on the distributed layer: the grid splits
	// into many more blocks (chares) than workers, the blocks spread over
	// Ranks in-process simulated nodes, and neighbors exchange halo slabs
	// through a transport every timestep. Results are bit-exact with the
	// single-process path. Incompatible with Periodic and StaticSchedule;
	// the tiling scheme is not consulted for execution (each chare runs
	// plain per-step sweeps) but still names the run. 0 or 1 selects the
	// ordinary single-process path.
	Ranks int `json:"ranks,omitempty"`
	// ChareFactor is the overdecomposition ratio of a distributed run:
	// the grid splits into Ranks·ChareFactor chares (default 4). More
	// chares per rank give migration finer grains at more halo surface.
	// Consulted only when Ranks > 1.
	ChareFactor int `json:"chare_factor,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.Order == 0 {
		c.Order = 1
	}
	if c.Scheme == "" {
		if c.Periodic {
			c.Scheme = Naive
		} else {
			c.Scheme = NuCORALS
		}
	}
	if c.Workers == 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.NUMANodes == 0 {
		c.NUMANodes = 1
	}
	if c.LLCBytesPerWorker == 0 {
		c.LLCBytesPerWorker = 1 << 20
	}
	return c
}

// Report summarizes one Run.
type Report struct {
	Scheme    SchemeName
	Workers   int
	Timesteps int
	// Updates is the number of stencil point updates performed.
	Updates int64
	// Seconds is the wall-clock execution time of the tiled computation.
	Seconds float64
	// Tiles is the number of space-time tiles executed.
	Tiles int
	// UpdatesPerWorker attributes the updates to workers.
	UpdatesPerWorker []int64
	// Imbalance is max/mean of per-worker busy time (1.0 = perfectly
	// balanced, 0 if nothing ran).
	Imbalance float64
	// Migrations counts chare migrations between ranks on a distributed
	// run (Config.Ranks > 1); always 0 on the single-process path.
	Migrations int64
	// Dist carries the distributed-runtime digest (inter-rank traffic,
	// halo-latency and barrier-wait distributions) on multi-rank runs;
	// nil on the single-process path.
	Dist *DistStats
	// FlopsPerUpdate converts updates to flops.
	FlopsPerUpdate int
	// Sched carries per-worker scheduler counters for dependency-scheduled
	// runs (parks, wakeups issued, queue pops, empty polls); nil under
	// Config.StaticSchedule, whose executor has no queues or parkers.
	Sched []SchedulerCounters
}

// Gupdates returns giga-updates per second.
func (r Report) Gupdates() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.Updates) / r.Seconds / 1e9
}

// GFLOPS returns the achieved GFLOPS.
func (r Report) GFLOPS() float64 { return r.Gupdates() * float64(r.FlopsPerUpdate) }

// plan is a cached tiling: the tiles of one (scheme, timesteps) instance
// with IDs assigned, the dependency graph derived, and every tile's in-tile
// traversal materialized. Everything in it is a pure function of the solver
// configuration and the timestep count, so repeated Execute calls
// (iterative solvers, benchmarks) skip the tiler, the O(tiles·deps) graph
// derivation, and the per-tile traversal construction — the execute path
// only indexes into the plan.
type plan struct {
	tiles []*spacetime.Tile
	deps  [][]int
	// trav[id] is tile id's in-tile step order (plan-relative timesteps);
	// interning it here removes the per-tile-per-run traversal allocation
	// that otherwise dominates steady-state runs.
	trav [][]tiling.StepBox
}

// ErrPoisoned is returned (wrapped, with the original cause) by every
// state-reading or state-advancing method of a Solver whose last run failed
// mid-plan. Temporal blocking mutates both double buffers while a plan
// executes, so a run that stops early — a cancelled context, a panicking
// kernel — leaves no consistent timestep to roll back to; the solver
// instead refuses further use until Import or Load installs a known-good
// state. An illegal tiling (engine.ErrCycle, engine.ErrStaticDeadlock) is
// rejected when its plan is built, before any tile runs, and does not
// poison. Test with errors.Is(err, ErrPoisoned).
var ErrPoisoned = errors.New("nustencil: solver state poisoned by a failed run (restore with Import or Load)")

// Solver executes iterative stencil computations on one grid.
type Solver struct {
	cfg    Config
	g      *grid.Grid
	st     *stencil.Stencil
	coeffs *stencil.Coefficients
	source []float64
	scheme tiling.Scheme
	op     *stencil.Op // built once; grid, stencil and coefficients are fixed for the solver's lifetime
	steps  int         // timesteps already run, for buffer parity
	plans  map[int]*plan
	// poison records the error that interrupted a run mid-plan, leaving the
	// double buffers inconsistent. Non-nil blocks Run/Value/Export/Save
	// until Import or Load restores a consistent state.
	poison error
	// execWrap, when non-nil, wraps the per-tile Exec before it reaches the
	// engine — the fault-injection seam tests use to prove panic isolation
	// and poisoning through the public API.
	execWrap func(engine.Exec) engine.Exec
	// distTune, when non-nil, tunes the distributed path beyond the
	// Config surface — the seam migration and transport tests use.
	distTune *distTuning
}

// Err reports the solver's poison state: nil while the grid state is
// consistent, otherwise an error wrapping ErrPoisoned together with the
// failure that caused it.
func (s *Solver) Err() error {
	if s.poison == nil {
		return nil
	}
	return fmt.Errorf("%w (cause: %v)", ErrPoisoned, s.poison)
}

// NewSolver validates the configuration and allocates the grid (both
// buffers zeroed, all pages untouched).
func NewSolver(cfg Config) (*Solver, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Dims) == 0 {
		return nil, errors.New("nustencil: Config.Dims is required")
	}
	if cfg.Timesteps < 0 {
		return nil, errors.New("nustencil: negative timesteps")
	}
	if cfg.Workers < 1 {
		return nil, errors.New("nustencil: workers must be positive")
	}
	for _, d := range cfg.Dims {
		if d < 2*cfg.Order+1 {
			return nil, fmt.Errorf("nustencil: dimension %d too small for order %d", d, cfg.Order)
		}
	}
	if cfg.Periodic && cfg.Scheme != Naive {
		return nil, fmt.Errorf("nustencil: periodic boundaries require the Naive scheme, got %s", cfg.Scheme)
	}
	if cfg.Ranks < 0 {
		return nil, fmt.Errorf("nustencil: negative ranks %d", cfg.Ranks)
	}
	if cfg.ChareFactor < 0 {
		return nil, fmt.Errorf("nustencil: negative chare factor %d", cfg.ChareFactor)
	}
	if cfg.Ranks > 1 {
		if cfg.Periodic {
			return nil, errors.New("nustencil: distributed runs (Ranks > 1) do not support periodic boundaries")
		}
		if cfg.StaticSchedule {
			return nil, errors.New("nustencil: distributed runs (Ranks > 1) do not support StaticSchedule")
		}
	}
	sch, err := schemeFor(cfg.Scheme, cfg.SchemeParams)
	if err != nil {
		return nil, err
	}
	s := &Solver{cfg: cfg, g: grid.New(cfg.Dims), scheme: sch}
	if cfg.Banded {
		s.st = stencil.NewBandedStar(len(cfg.Dims), cfg.Order)
		s.coeffs = stencil.NewCoefficients(s.st, s.g)
	} else if cfg.Coeffs != nil {
		s.st = stencil.NewStarWithCoeffs(len(cfg.Dims), cfg.Order, cfg.Coeffs)
	} else {
		s.st = stencil.NewStar(len(cfg.Dims), cfg.Order)
	}
	if s.coeffs != nil {
		s.op = stencil.NewBandedOp(s.st, s.g, s.coeffs)
	} else {
		s.op = stencil.NewOp(s.st, s.g)
	}
	return s, nil
}

// SetInitial initializes every cell (and the fixed boundary) from f.
func (s *Solver) SetInitial(f func(pt []int) float64) { s.g.FillFunc(f) }

// SetCoefficients initializes the per-cell coefficients of a banded solver:
// f(point, pt) returns the coefficient of stencil point index point (0 is
// the centre) at cell pt.
func (s *Solver) SetCoefficients(f func(point int, pt []int) float64) error {
	if s.coeffs == nil {
		return errors.New("nustencil: SetCoefficients requires Config.Banded")
	}
	buf := make([]int, len(s.cfg.Dims))
	s.coeffs.FillFunc(func(p, idx int) float64 {
		return f(p, s.g.Coords(idx, buf))
	})
	return nil
}

// SetSource attaches a per-cell additive term g(pt) to every update:
// X' = stencil(X) + g. With weighted-Jacobi coefficients this solves the
// inhomogeneous system A·u = f (set g = ω·D⁻¹·f), which is what multigrid
// correction equations and source-driven diffusion need. A nil f removes
// the term.
func (s *Solver) SetSource(f func(pt []int) float64) {
	if f == nil {
		s.source = nil
		return
	}
	if s.source == nil {
		s.source = make([]float64, s.g.Len())
	}
	buf := make([]int, len(s.cfg.Dims))
	for i := range s.source {
		s.source[i] = f(s.g.Coords(i, buf))
	}
}

// Value returns the current value at pt (after any completed Run calls).
// On a poisoned solver (see ErrPoisoned) it returns NaN rather than a
// half-updated value.
func (s *Solver) Value(pt []int) float64 {
	if s.poison != nil {
		return math.NaN()
	}
	return s.g.At(s.steps, pt)
}

// Len returns the number of grid cells (one buffer).
func (s *Solver) Len() int { return s.g.Len() }

// Export copies the current state into dst in flat row-major order (the
// last dimension unit-stride) and returns it; a nil or short dst is
// reallocated. Export and Import let applications build transfer operators
// — restriction and prolongation for a multigrid smoother, checkpointing —
// without going through per-point Value calls.
// Export refuses a poisoned solver (see ErrPoisoned) by returning nil.
func (s *Solver) Export(dst []float64) []float64 {
	if s.poison != nil {
		return nil
	}
	if len(dst) < s.g.Len() {
		dst = make([]float64, s.g.Len())
	}
	copy(dst, s.g.Buf(s.steps))
	return dst[:s.g.Len()]
}

// Import replaces the current state (both buffers, so the fixed boundary is
// consistent for the next Run) with src, which must hold exactly Len flat
// row-major values. Because it rewrites both buffers wholesale, Import
// restores a poisoned solver (see ErrPoisoned) to a usable state.
func (s *Solver) Import(src []float64) error {
	if len(src) != s.g.Len() {
		return fmt.Errorf("nustencil: Import needs %d values, got %d", s.g.Len(), len(src))
	}
	copy(s.g.Buf(0), src)
	copy(s.g.Buf(1), src)
	s.poison = nil
	return nil
}

// NumPoints returns the stencil size (e.g. 7 for the 3D first-order star).
func (s *Solver) NumPoints() int { return s.st.NumPoints() }

// StencilDescription names the configured stencil.
func (s *Solver) StencilDescription() string { return s.st.String() }

// Run advances the grid by Config.Timesteps iterations using the configured
// scheme and returns the execution report: the convenience form of
// Execute(nil, RunSpec{Timesteps: cfg.Timesteps}). Run may be called
// repeatedly; each call continues from the current state. If a run fails
// mid-plan — a panicking kernel — the solver is poisoned (see ErrPoisoned)
// until Import or Load restores a consistent state.
func (s *Solver) Run() (Report, error) {
	out, err := s.Execute(nil, RunSpec{Timesteps: s.cfg.Timesteps})
	return out.Report, err
}

// runSteps executes one plan of spec.Timesteps steps, recording a trace
// when spec.Trace is set and simulated performance counters when
// spec.Counters is. A nil ctx means no cancellation (and costs nothing on
// the hot path). Every error return carries a report holding only the
// identity fields (Scheme, Workers, Timesteps, FlopsPerUpdate) and nil
// trace/counters: timing and update counts from a failed run would be
// meaningless — a caller computing Gupdates on the error path must see
// zero, not a rate.
func (s *Solver) runSteps(ctx context.Context, spec RunSpec) (Report, *Trace, *PerfCounters, error) {
	cfg := s.cfg
	timesteps, traced := spec.Timesteps, spec.Trace
	rep := Report{
		Scheme:         cfg.Scheme,
		Workers:        cfg.Workers,
		Timesteps:      timesteps,
		FlopsPerUpdate: s.st.FlopsPerUpdate(),
	}
	if err := s.Err(); err != nil {
		return rep, nil, nil, err
	}
	if timesteps < 0 {
		return rep, nil, nil, fmt.Errorf("nustencil: negative timesteps %d", timesteps)
	}
	if timesteps == 0 {
		rep.UpdatesPerWorker = make([]int64, cfg.Workers)
		return rep, nil, nil, nil
	}
	if cfg.Ranks > 1 {
		return s.runDistributed(ctx, spec, rep)
	}
	var wrap []int
	if cfg.Periodic {
		wrap = s.g.Dims()
	}
	pl := s.plans[timesteps]
	if pl == nil {
		p := &tiling.Problem{
			Grid:              s.g,
			Stencil:           s.st,
			Timesteps:         timesteps,
			Workers:           cfg.Workers,
			Topo:              affinity.Fixed{Cores: cfg.Workers, Nodes: cfg.NUMANodes},
			LLCBytesPerWorker: cfg.LLCBytesPerWorker,
			Periodic:          cfg.Periodic,
		}
		s.scheme.Distribute(p)
		tiles, err := s.scheme.Tiles(p)
		if err != nil {
			return rep, nil, nil, err
		}
		spacetime.AssignIDs(tiles)
		trav := make([][]tiling.StepBox, len(tiles))
		for _, t := range tiles {
			trav[t.ID] = tiling.TraverseOrDefault(s.scheme, t, cfg.Order)
		}
		// A cycle or an inconsistent static order is a property of the
		// plan: reject it here, once, before it is cached or any tile
		// touches the grid, so the solver stays healthy.
		deps := engine.BuildDeps(tiles, cfg.Order, wrap)
		if err := engine.CheckDeps(deps); err != nil {
			return rep, nil, nil, err
		}
		if cfg.StaticSchedule {
			if err := engine.CheckStatic(tiles, deps, cfg.Workers); err != nil {
				return rep, nil, nil, err
			}
		}
		pl = &plan{tiles: tiles, deps: deps, trav: trav}
		if s.plans == nil {
			s.plans = make(map[int]*plan)
		}
		s.plans[timesteps] = pl
	}
	tiles := pl.tiles

	op := s.op
	op.SetSource(s.source)
	op.SetPeriodic(cfg.Periodic)
	base := s.steps
	var exec engine.Exec = func(w int, tile *spacetime.Tile) int64 {
		var n int64
		for _, sb := range pl.trav[tile.ID] {
			n += op.ApplyBox(sb.Box, base+sb.T)
		}
		return n
	}
	if s.execWrap != nil {
		exec = s.execWrap(exec)
	}
	var cnt *counting
	var sampleEvery time.Duration
	if spec.Counters {
		var err error
		cnt, err = s.newCounting(spec.Machine, cfg.Scheme, memsim.Workload{Dims: s.g.Dims(), Timesteps: timesteps}, cfg.Workers, s.g)
		if err != nil {
			return rep, nil, nil, err
		}
		sampleEvery = spec.samplePeriod()
		inner := exec
		exec = func(w int, tile *spacetime.Tile) int64 {
			t0 := time.Now()
			n := inner(w, tile)
			cnt.col.RecordTile(w, tile, n, time.Since(t0))
			return n
		}
	}
	var tr *trace.Trace
	if traced {
		tr = trace.NewForWorkers(cfg.Workers)
		inner := exec
		exec = func(w int, tile *spacetime.Tile) int64 {
			t0 := time.Now()
			n := inner(w, tile)
			tr.Record(w, tile.ID, tile.T0, tile.T1(), n, t0, time.Now())
			return n
		}
	}
	var onSample func(engine.Sample)
	if cnt != nil && sampleEvery > 0 {
		onSample = func(sm engine.Sample) {
			cnt.col.RecordSample(perfcount.Sample{
				Elapsed:     sm.Elapsed,
				ReadyTiles:  sm.Ready,
				IdleWorkers: sm.Idle,
			})
		}
	}
	start := time.Now()
	run := engine.Run
	if cfg.StaticSchedule {
		run = engine.RunStatic
	}
	stats, err := run(tiles, engine.Config{
		Workers:     cfg.Workers,
		Order:       cfg.Order,
		Wrap:        wrap,
		Deps:        pl.deps,
		Pin:         cfg.PinThreads,
		Scheme:      string(cfg.Scheme),
		Exec:        exec,
		Ctx:         ctx,
		SampleEvery: sampleEvery,
		OnSample:    onSample,
	})
	if err != nil {
		// The engine stopped mid-plan: the double buffers may disagree and
		// s.steps no longer names a consistent timestep. Poison the solver —
		// the report keeps only its identity fields.
		s.poison = err
		return rep, nil, nil, err
	}
	rep.Seconds = time.Since(start).Seconds()
	s.steps += timesteps
	rep.Updates = stats.TotalUpdates
	rep.Tiles = len(tiles)
	rep.UpdatesPerWorker = stats.UpdatesPerWorker
	rep.Imbalance = stats.Imbalance()
	rep.Sched = schedCounters(stats.Sched)
	var pc *PerfCounters
	if cnt != nil {
		counters := cnt.col.Counters()
		pc = cnt.perf(counters, s.st, rep.Seconds)
		if traced {
			// The scheduler samples become Chrome trace counter tracks,
			// graphed above the worker lanes.
			for _, smp := range counters.Samples {
				at := start.Add(smp.Elapsed)
				tr.AddCounter("ready tiles", at, float64(smp.ReadyTiles))
				tr.AddCounter("idle workers", at, float64(smp.IdleWorkers))
			}
		}
	}
	if traced {
		return rep, &Trace{tr: tr, workers: cfg.Workers}, pc, nil
	}
	return rep, nil, pc, nil
}
