package nustencil

import (
	"context"
	"time"

	"nustencil/internal/dist"
	"nustencil/internal/engine"
	"nustencil/internal/memsim"
	"nustencil/internal/trace"
)

// distTuning tunes the distributed path beyond the Config surface:
// load-balance cadence, balancer, synthetic load, and transport are
// runtime concerns the wire-form Config deliberately does not carry.
// Tests reach them through the Solver's unexported distTune field.
type distTuning struct {
	// LBPeriod inserts a load-balance barrier every LBPeriod timesteps
	// (0 disables migration).
	LBPeriod int
	// Balancer decides migrations at each barrier (nil: GreedyBalancer).
	Balancer dist.Balancer
	// LoadFunc adds synthetic per-chare per-step work — the
	// CHANGELOAD-style time-varying hotspot migration tests use.
	LoadFunc func(chare, step int) int
	// Transport overrides the in-process transport.
	Transport dist.Transport
}

// runDistributed executes timesteps on the distributed layer: the grid
// scattered into rank-owned chares with per-step halo exchange, gathered
// back on success. Unlike the tiled path, a failed distributed run does
// NOT poison the solver — the runtime only writes the global grid in its
// final gather, so the pre-run state stays consistent.
func (s *Solver) runDistributed(ctx context.Context, spec RunSpec, rep Report) (Report, *Trace, *PerfCounters, error) {
	cfg := s.cfg
	timesteps := spec.Timesteps
	wpr := cfg.Workers / cfg.Ranks
	if wpr < 1 {
		wpr = 1
	}
	workers := cfg.Ranks * wpr
	rep.Workers = workers
	opts := dist.Options{
		Ranks:          cfg.Ranks,
		ChareFactor:    cfg.ChareFactor,
		WorkersPerRank: wpr,
	}
	// A traced run gets a multi-process trace: one pid per rank, one tid
	// per chare, halo flow arrows, migration/AtSync instants, per-rank
	// counter tracks, each recorded by the worker that observes it.
	var dtr *trace.Trace
	if spec.Trace {
		dtr = trace.New(workers)
		opts.Trace = dtr
	}
	if s.distTune != nil {
		opts.LBPeriod = s.distTune.LBPeriod
		opts.Balancer = s.distTune.Balancer
		opts.LoadFunc = s.distTune.LoadFunc
		opts.Transport = s.distTune.Transport
	}

	var cnt *counting
	if spec.Counters {
		// Each chare runs plain per-step sweeps regardless of cfg.Scheme,
		// so the naive model prices the traffic honestly; a zero chare
		// count takes the model's default factor, as the runtime does. The
		// grid stays nil: per-node page-ownership attribution needs the
		// tile geometry the chare runtime doesn't produce.
		var err error
		cnt, err = s.newCounting(spec.Machine, Naive, memsim.Workload{
			Dims:      s.g.Dims(),
			Timesteps: timesteps,
			Ranks:     cfg.Ranks,
			Chares:    cfg.Ranks * cfg.ChareFactor,
		}, workers, nil)
		if err != nil {
			return rep, nil, nil, err
		}
		opts.OnExec = func(w int, n int64, d time.Duration) {
			cnt.col.RecordTile(w, nil, n, d)
		}
	}

	prob := dist.Problem{
		Grid:    s.g,
		Base:    s.steps,
		Stencil: s.st,
		Coeffs:  s.coeffs,
		Source:  s.source,
	}
	rtm, err := dist.New(prob, opts)
	if err != nil {
		return rep, nil, nil, err
	}
	start := time.Now()
	res, err := rtm.Run(ctx, timesteps)
	if err != nil {
		return rep, nil, nil, err
	}
	rep.Seconds = time.Since(start).Seconds()
	s.steps += timesteps
	rep.Updates = res.Updates
	rep.Tiles = int(res.ChareSteps)
	rep.UpdatesPerWorker = res.UpdatesPerWorker
	rep.Imbalance = engine.Imbalance(res.BusyPerWorker)
	rep.Utilization = utilization(res.BusyPerWorker, rep.Seconds)
	rep.Kernel = s.op.Kernel()
	rep.Dist = &DistStats{
		Ranks:          cfg.Ranks,
		Chares:         res.Chares,
		HaloMsgs:       res.Net.Msgs,
		HaloBytes:      res.Net.HaloBytes,
		Migrations:     res.Net.Migrations,
		MigrationBytes: res.Net.MigrationBytes,
		HaloLatency:    res.Net.HaloLatency,
		BarrierWait:    res.Net.BarrierWait,
	}

	var tw *Trace
	if dtr != nil {
		tw = &Trace{tr: dtr}
	}

	var pc *PerfCounters
	if cnt != nil {
		counters := cnt.col.Counters()
		counters.Ranks = cfg.Ranks
		counters.NetworkBytes = res.Net.Bytes()
		pc = cnt.perf(counters, s.st, rep.Seconds)
	}
	return rep, tw, pc, nil
}
