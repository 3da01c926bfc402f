package main

import (
	"sync"
	"time"

	"nustencil"
	"nustencil/bench"
	"nustencil/internal/dist"
	"nustencil/internal/grid"
	"nustencil/internal/histo"
	"nustencil/internal/stencil"
)

// timedTransport is the in-process transport with every Send timed.
type timedTransport struct {
	*dist.LocalTransport
	mu    sync.Mutex
	sends []time.Duration
}

func (t *timedTransport) Send(m dist.Msg) {
	t0 := time.Now()
	t.LocalTransport.Send(m)
	d := time.Since(t0)
	t.mu.Lock()
	t.sends = append(t.sends, d)
	t.mu.Unlock()
}

// distProbe is the per-layer record of one distributed configuration,
// run both through Execute and recomposed as dist.New + Runtime.Run.
type distProbe struct {
	scheme  nustencil.SchemeName
	workers int
	// exec are the warm Execute calls; news and runs the recomposed
	// dist.New and Runtime.Run calls, round for round.
	exec, news, runs []time.Duration
	sends            []time.Duration
	steps            int64 // timesteps over the warm runs
	msgs, haloBytes  int64
	// modelBytes is 8·dist.NetHaloWordsPerStep per exchanging step.
	modelBytes       int64
	haloLat, barrier histo.Hist
	// busy is chare-step kernel time summed over workers (OnExec).
	busy    time.Duration
	updates int64
	// tails are the times from the last chare-step to Run's return.
	tails []time.Duration
	// bytesPerUpdate is computed as in solveProbe.
	bytesPerUpdate float64
	flopsPerUpdate int
}

// probeDist runs cfg (Ranks > 1) for one cold and rounds warm rounds of
// steps timesteps on both paths and checks they end bit-identical.
func probeDist(sp *spans, parent int, cfg nustencil.Config, steps, rounds int, seed int64, rep *bench.Report) (*distProbe, error) {
	cfg = withDefaults(cfg)
	root := sp.open("probe dist "+string(cfg.Scheme), parent, 0)
	defer sp.close(root)
	field := bench.Field(seed)
	wpr := max(1, cfg.Workers/cfg.Ranks)
	chareFactor := cfg.ChareFactor
	if chareFactor < 1 {
		chareFactor = dist.DefaultChareFactor
	}
	p := &distProbe{scheme: cfg.Scheme, workers: cfg.Ranks * wpr}

	var sol *nustencil.Solver
	var err error
	sp.timed("nustencil.NewSolver", root, 0, func() { sol, err = nustencil.NewSolver(cfg) })
	if err != nil {
		return nil, err
	}
	sp.timed("nustencil.Solver.SetInitial", root, 0, func() { sol.SetInitial(field) })
	g := grid.New(cfg.Dims)
	sp.timed("grid.FillFunc", root, 0, func() { g.FillFunc(field) })
	st := stencil.NewStar(len(cfg.Dims), cfg.Order)
	p.bytesPerUpdate = float64(8 * (st.IdealReadsPerUpdate() + 1))
	p.flopsPerUpdate = st.FlopsPerUpdate()
	ext := make([]int, len(cfg.Dims))
	for k, d := range cfg.Dims {
		ext[k] = d - 2*cfg.Order
	}
	modelPerRun := 8 * dist.NetHaloWordsPerStep(ext, cfg.Order, cfg.Ranks, cfg.Ranks*chareFactor) * int64(steps-1)

	base := 0
	busy := make([]time.Duration, p.workers)
	last := make([]time.Time, p.workers)
	onExec := func(w int, _ int64, d time.Duration) {
		busy[w] += d
		last[w] = time.Now()
	}
	want := bench.Interior(cfg.Dims, cfg.Order) * int64(steps)
	reset := func() error {
		g.FillFunc(field)
		return sol.Import(bench.FieldState(cfg.Dims, seed))
	}
	for r := 0; r <= rounds; r++ {
		rep.Attempted++
		var out *nustencil.RunOutput
		_, d := sp.timed("nustencil.Solver.Execute", root, r, func() {
			out, err = sol.Execute(nil, nustencil.RunSpec{Timesteps: steps})
		})
		if err == nil && out.Report.Updates != want {
			rep.Failf("%s distributed Execute reported %d updates, want %d", cfg.Scheme, out.Report.Updates, want)
		}
		clear(busy)
		clear(last)
		tr := &timedTransport{LocalTransport: dist.NewLocalTransport(cfg.Ranks)}
		var rt *dist.Runtime
		var res dist.Result
		var nd, rd time.Duration
		var end time.Time
		if err == nil {
			rep.Attempted++
			_, nd = sp.timed("dist.New", root, r, func() {
				rt, err = dist.New(dist.Problem{Grid: g, Base: base, Stencil: st}, dist.Options{
					Ranks: cfg.Ranks, ChareFactor: chareFactor, WorkersPerRank: wpr,
					Transport: tr, OnExec: onExec,
				})
			})
		}
		if err == nil {
			_, rd = sp.timed("dist.Runtime.Run", root, r, func() {
				res, err = rt.Run(nil, steps)
				end = time.Now()
			})
		}
		if err != nil {
			rep.Failed++
			if err := reset(); err != nil {
				return nil, err
			}
			continue
		}
		base += steps
		if res.Updates != want {
			rep.Failf("%s recomposed distributed run performed %d updates, want %d", cfg.Scheme, res.Updates, want)
		}
		// Every valid lattice ends bit-identical, so the state check below
		// cannot tell a drifted recomposition; its shape can.
		if r == 0 && (int(res.ChareSteps) != out.Report.Tiles || len(res.UpdatesPerWorker) != len(out.Report.UpdatesPerWorker)) {
			rep.Failf("%s Execute ran %d chare-steps on %d workers, the recomposed run %d on %d: its defaults differ from the Solver's",
				cfg.Scheme, out.Report.Tiles, len(out.Report.UpdatesPerWorker), res.ChareSteps, len(res.UpdatesPerWorker))
		}
		if r == 0 {
			continue
		}
		p.exec = append(p.exec, d)
		p.news = append(p.news, nd)
		p.runs = append(p.runs, rd)
		p.sends = append(p.sends, tr.sends...)
		p.steps += int64(steps)
		p.msgs += res.Net.Msgs
		p.haloBytes += res.Net.HaloBytes
		p.modelBytes += modelPerRun
		p.haloLat.Merge(&res.Net.HaloLatency)
		p.barrier.Merge(&res.Net.BarrierWait)
		p.updates += res.Updates
		var lastExec time.Time
		for w := range busy {
			p.busy += busy[w]
			if last[w].After(lastExec) {
				lastExec = last[w]
			}
		}
		p.tails = append(p.tails, end.Sub(lastExec))
	}
	if err := bench.Equal(sol.Export(nil), g.Buf(base)); err != nil {
		rep.Failf("%s recomposed distributed path differs from Execute: %v", cfg.Scheme, err)
	}
	return p, nil
}
