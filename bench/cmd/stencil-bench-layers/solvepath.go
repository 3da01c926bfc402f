package main

import (
	"fmt"
	"time"

	"nustencil"
	"nustencil/bench"
	"nustencil/internal/affinity"
	"nustencil/internal/engine"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/tiling"
	"nustencil/internal/tiling/naive"
	"nustencil/internal/tiling/nucats"
	"nustencil/internal/tiling/nucorals"
)

// noopRuns is how many engine.Run calls with an empty Exec time the
// scheduler alone.
const noopRuns = 50

// solveProbe is the per-layer record of one single-process
// configuration, run both through Execute and recomposed from its layers:
// scheme.Distribute/Tiles → spacetime.AssignIDs → tiling.TraverseOrDefault
// → engine.BuildDeps → engine.Run with an Exec over stencil.Op.ApplyBox.
type solveProbe struct {
	scheme  nustencil.SchemeName
	workers int
	// Plan shape and build cost.
	tiles, edges, stepBoxes int
	boxCells                int64
	build, deps             time.Duration
	// cold is the first Execute (plan built); exec and runs are the warm
	// Execute calls and the recomposed engine.Run calls, round for round.
	cold       time.Duration
	exec, runs []time.Duration
	// overhead is each warm run's wall time minus its busiest worker's
	// kernel time.
	overhead []time.Duration
	// busy is kernel time summed over workers and warm runs.
	busy      time.Duration
	updates   int64
	parks     int64
	imbalance []float64
	noop      []time.Duration
	// bytesPerUpdate is computed, not measured: one write plus the reads
	// an update needs with ideal caching.
	bytesPerUpdate float64
	flopsPerUpdate int
}

// withDefaults fills the Config defaults the recomposed path needs
// explicitly.
func withDefaults(cfg nustencil.Config) nustencil.Config {
	if cfg.Order == 0 {
		cfg.Order = 1
	}
	if cfg.NUMANodes == 0 {
		cfg.NUMANodes = 1
	}
	if cfg.LLCBytesPerWorker == 0 {
		cfg.LLCBytesPerWorker = 1 << 20
	}
	return cfg
}

// kernelFor builds the stencil and kernel a Solver of cfg builds, with
// the default banded coefficients.
func kernelFor(cfg nustencil.Config, g *grid.Grid) (*stencil.Stencil, *stencil.Op) {
	nd := len(cfg.Dims)
	if cfg.Banded {
		st := stencil.NewBandedStar(nd, cfg.Order)
		return st, stencil.NewBandedOp(st, g, stencil.NewCoefficients(st, g))
	}
	st := stencil.NewStar(nd, cfg.Order)
	return st, stencil.NewOp(st, g)
}

// schemeFor returns the tiler a Solver uses for name with default
// parameters.
func schemeFor(name nustencil.SchemeName) (tiling.Scheme, error) {
	switch name {
	case nustencil.Naive:
		return naive.New(), nil
	case nustencil.NuCATS:
		return &nucats.Scheme{}, nil
	case nustencil.NuCORALS:
		return &nucorals.Scheme{}, nil
	}
	return nil, fmt.Errorf("no recomposition for scheme %s", name)
}

// probeSolve runs cfg for one cold and rounds warm rounds of steps
// timesteps on both paths and checks they end bit-identical.
func probeSolve(sp *spans, parent int, cfg nustencil.Config, steps, rounds int, seed int64, rep *bench.Report) (*solveProbe, error) {
	cfg = withDefaults(cfg)
	root := sp.open("probe "+string(cfg.Scheme), parent, 0)
	defer sp.close(root)
	field := bench.Field(seed)
	p := &solveProbe{scheme: cfg.Scheme, workers: cfg.Workers}

	var sol *nustencil.Solver
	var err error
	sp.timed("nustencil.NewSolver", root, 0, func() { sol, err = nustencil.NewSolver(cfg) })
	if err != nil {
		return nil, err
	}
	sp.timed("nustencil.Solver.SetInitial", root, 0, func() { sol.SetInitial(field) })

	g := grid.New(cfg.Dims)
	sp.timed("grid.FillFunc", root, 0, func() { g.FillFunc(field) })
	st, op := kernelFor(cfg, g)
	p.bytesPerUpdate = float64(8 * (st.IdealReadsPerUpdate() + 1))
	p.flopsPerUpdate = st.FlopsPerUpdate()
	sch, err := schemeFor(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	prob := &tiling.Problem{
		Grid: g, Stencil: st, Timesteps: steps, Workers: cfg.Workers,
		Topo:              affinity.Fixed{Cores: cfg.Workers, Nodes: cfg.NUMANodes},
		LLCBytesPerWorker: cfg.LLCBytesPerWorker,
	}
	var tiles []*spacetime.Tile
	_, dDist := sp.timed("tiling.Scheme.Distribute", root, 0, func() { sch.Distribute(prob) })
	_, dTiles := sp.timed("tiling.Scheme.Tiles", root, 0, func() { tiles, err = sch.Tiles(prob) })
	if err != nil {
		return nil, err
	}
	_, dIDs := sp.timed("spacetime.AssignIDs", root, 0, func() { spacetime.AssignIDs(tiles) })
	trav := make([][]tiling.StepBox, len(tiles))
	_, dTrav := sp.timed("tiling.TraverseOrDefault", root, 0, func() {
		for _, t := range tiles {
			trav[t.ID] = tiling.TraverseOrDefault(sch, t, cfg.Order)
		}
	})
	var deps [][]int
	_, p.deps = sp.timed("engine.BuildDeps", root, 0, func() { deps = engine.BuildDeps(tiles, cfg.Order, nil) })
	p.build = dDist + dTiles + dIDs + dTrav
	p.tiles = len(tiles)
	for i := range tiles {
		p.edges += len(deps[i])
		p.stepBoxes += len(trav[i])
		for _, sb := range trav[i] {
			p.boxCells += sb.Box.Size()
		}
	}

	base := 0
	busy := make([]time.Duration, cfg.Workers)
	kernel := func(w int, t *spacetime.Tile) int64 {
		t0 := time.Now()
		var n int64
		for _, sb := range trav[t.ID] {
			n += op.ApplyBox(sb.Box, base+sb.T)
		}
		busy[w] += time.Since(t0)
		return n
	}
	run := func(name string, r int, exec engine.Exec) (*engine.Stats, time.Duration, error) {
		clear(busy)
		var stats *engine.Stats
		var err error
		_, d := sp.timed(name, root, r, func() {
			stats, err = engine.Run(tiles, engine.Config{
				Workers: cfg.Workers, Order: cfg.Order, Deps: deps,
				Scheme: string(cfg.Scheme), Exec: exec,
			})
		})
		return stats, d, err
	}
	// The no-op runs use one worker: with two, about one in fifty empty
	// runs fails with the engine's false ErrCycle, its idle-worker cycle
	// check racing a waking worker.
	for r := 0; r < noopRuns; r++ {
		rep.Attempted++
		var err error
		_, d := sp.timed("engine.Run(noop)", root, r, func() {
			_, err = engine.Run(tiles, engine.Config{
				Workers: 1, Order: cfg.Order, Deps: deps,
				Scheme: string(cfg.Scheme), Exec: func(int, *spacetime.Tile) int64 { return 0 },
			})
		})
		if err != nil {
			rep.Failed++
			continue
		}
		p.noop = append(p.noop, d)
	}

	// Round 0 is the cold round: Execute builds its plan, the recomposed
	// path already has one. A failure on either path restarts both from
	// the initial state so they stay in step.
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
			rep.Failf("%s Execute reported %d updates, want %d", cfg.Scheme, out.Report.Updates, want)
		}
		// Every valid plan ends bit-identical, so the state check below
		// cannot tell a drifted recomposition; the tile count can.
		if err == nil && r == 0 && out.Report.Tiles != len(tiles) {
			rep.Failf("%s Execute ran %d tiles, the recomposed plan has %d: its defaults differ from the Solver's", cfg.Scheme, out.Report.Tiles, len(tiles))
		}
		var stats *engine.Stats
		var rd time.Duration
		if err == nil {
			rep.Attempted++
			stats, rd, err = run("engine.Run", r, kernel)
		}
		if err != nil {
			rep.Failed++
			if err := reset(); err != nil {
				return nil, err
			}
			continue
		}
		base += steps
		if stats.TotalUpdates != want {
			rep.Failf("%s recomposed run performed %d updates, want %d", cfg.Scheme, stats.TotalUpdates, want)
		}
		if r == 0 {
			p.cold = d
			continue
		}
		p.exec = append(p.exec, d)
		p.runs = append(p.runs, rd)
		var maxBusy time.Duration
		for _, b := range busy {
			p.busy += b
			maxBusy = max(maxBusy, b)
		}
		p.overhead = append(p.overhead, rd-maxBusy)
		p.updates += stats.TotalUpdates
		for _, sc := range stats.Sched {
			p.parks += sc.Parks
		}
		p.imbalance = append(p.imbalance, stats.Imbalance())
	}
	if err := bench.Equal(sol.Export(nil), g.Buf(base)); err != nil {
		rep.Failf("%s recomposed solve path differs from Execute: %v", cfg.Scheme, err)
	}
	return p, nil
}
