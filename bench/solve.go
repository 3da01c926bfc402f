package bench

import (
	"fmt"
	"runtime"
	"time"

	"nustencil"
	"nustencil/internal/grid"
	"nustencil/internal/stencil"
	"nustencil/internal/verify"
)

// reference returns the state verify.Solve — the serial, untiled golden
// model — reaches from Field(seed) after steps timesteps of the constant
// star stencil of cfg, as a flat row-major slice.
func reference(cfg nustencil.Config, steps int, seed int64) []float64 {
	order := cfg.Order
	if order == 0 {
		order = 1
	}
	g := grid.New(cfg.Dims)
	g.FillFunc(Field(seed))
	verify.Solve(stencil.NewOp(stencil.NewStar(len(cfg.Dims), order), g), steps)
	return g.Buf(steps % 2)
}

// Equal reports whether two states are bit-identical, naming the first
// differing cell otherwise.
func Equal(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("state has %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("cell %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// timedExecute runs one untraced Execute and returns its wall time.
func timedExecute(s *nustencil.Solver, steps int) (*nustencil.RunOutput, time.Duration, error) {
	t0 := time.Now()
	out, err := s.Execute(nil, nustencil.RunSpec{Timesteps: steps})
	return out, time.Since(t0), err
}

// SolveRun holds the raw samples of one solve workload run.
type SolveRun struct {
	// Setup holds each scheme's set-up times: NewSolver, the initial fill
	// and the first (cold-plan) Execute.
	Setup map[nustencil.SchemeName][]time.Duration
	// Solvers are the warm solvers, one per scheme in Schemes order.
	Solvers []*nustencil.Solver
	// Rate holds each scheme's per-Execute rates in Gupdates/s, counted
	// as updates over the Execute call's wall time.
	Rate map[nustencil.SchemeName][]float64
	// Exec holds the wall time of every timed Execute.
	Exec      []time.Duration
	Attempted int64
	Failed    int64
	// HeapBytes is the live heap after the timed phase, solvers held.
	HeapBytes uint64
	// Host is the workload's gauge, sampled before every set-up and every
	// timed Execute.
	Host *HostGauge
}

// SetupTotal returns the set-up time of the whole workload: the sum over
// schemes of each scheme's median set-up.
func (r *SolveRun) SetupTotal() float64 {
	var sum float64
	for _, ds := range r.Setup {
		sum += Median(Durations(ds))
	}
	return sum
}

// setupSolver builds, fills and cold-executes one solver of w, retrying
// a failed Execute from the initial state (and counting the failure).
func setupSolver(w Workload, scheme nustencil.SchemeName, seed int64, run *SolveRun) (*nustencil.Solver, error) {
	cfg := w.Problem
	cfg.Scheme = scheme
	t0 := time.Now()
	s, err := nustencil.NewSolver(cfg)
	if err != nil {
		return nil, err
	}
	s.SetInitial(Field(seed))
	for attempt := 0; ; attempt++ {
		run.Attempted++
		_, _, err = timedExecute(s, w.Steps)
		if err == nil {
			break
		}
		run.Failed++
		if attempt == 2 {
			return nil, fmt.Errorf("%s: cold Execute failed three times: %w", scheme, err)
		}
		if err := s.Import(FieldState(cfg.Dims, seed)); err != nil {
			return nil, err
		}
	}
	run.Setup[scheme] = append(run.Setup[scheme], time.Since(t0))
	return s, nil
}

// RunSolve runs a solve or distributed workload: set up every scheme,
// check each against the reference once (untimed), then time rounds of
// round-robin Executes. Every timed Execute must report interior × steps
// updates; a failed Execute is counted, its solver restored from the
// initial state, and the run continues.
func RunSolve(w Workload, seed int64, seconds int, rep *Report) (*SolveRun, error) {
	run := &SolveRun{
		Setup: map[nustencil.SchemeName][]time.Duration{},
		Rate:  map[nustencil.SchemeName][]float64{},
		Host:  newHostGauge(w.Gauge, w.Problem.Workers, w.Nominal),
	}
	ref := reference(w.Problem, w.Steps, seed)
	var state []float64
	for _, sc := range Schemes {
		var s *nustencil.Solver
		for r := 0; r < w.SetupReps; r++ {
			// Each set-up starts from a collected heap, so no set-up pays
			// for collecting the garbage of the ones before it.
			s = nil
			runtime.GC()
			run.Host.SampleSetup()
			var err error
			if s, err = setupSolver(w, sc, seed, run); err != nil {
				return nil, err
			}
		}
		state = s.Export(state)
		if err := Equal(state, ref); err != nil {
			rep.Failf("%s after %d steps differs from verify.Solve: %v", sc, w.Steps, err)
		}
		run.Solvers = append(run.Solvers, s)
	}
	ref, state = nil, nil

	want := Interior(w.Problem.Dims, w.Problem.Order) * int64(w.Steps)
	rounds := Scale(w.Rounds, seconds)
	for r := 0; r < rounds; r++ {
		for k := range Schemes {
			// Rotate the starting scheme so none always follows the same
			// neighbour's cache footprint.
			i := (r + k) % len(Schemes)
			s := run.Solvers[i]
			run.Host.Sample()
			run.Attempted++
			out, d, err := timedExecute(s, w.Steps)
			if err != nil {
				run.Failed++
				if err := s.Import(FieldState(w.Problem.Dims, seed)); err != nil {
					return nil, err
				}
				continue
			}
			if out.Report.Updates != want {
				rep.Failf("%s Execute reported %d updates, want %d", Schemes[i], out.Report.Updates, want)
			}
			run.Exec = append(run.Exec, d)
			run.Rate[Schemes[i]] = append(run.Rate[Schemes[i]], float64(want)/d.Seconds()/1e9)
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	run.HeapBytes = ms.HeapAlloc
	runtime.KeepAlive(run.Solvers)
	return run, nil
}

// Durations converts durations to seconds.
func Durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
