package tune

import (
	"context"
	"fmt"

	"nustencil"
)

// Workload describes the problem the tuner measures against.
type Workload struct {
	Dims      []int
	Timesteps int
	Workers   int
	LLCBytes  int64
}

// SpaceFor returns the search space for a scheme name, sized to the
// workload's dimensions. The relieve hints encode each parameter's expected
// effect on the cost model's bounds, steering FeedbackSearch:
//
//   - cache-bound (llc) runs shrink the blocking (shorter tiles, narrower
//     bands) so the live working set fits again;
//   - memory/controller-bound runs deepen temporal blocking (taller tiles)
//     to convert main-memory traffic into cache reuse;
//   - controller/interconnect-bound nuCORALS runs additionally raise τ, the
//     thread-parallelogram height that controls how much of each thread's
//     traffic stays on its own node (the affinity lever of the τ-sweep
//     ablation).
func SpaceFor(scheme string, w Workload) (Space, error) {
	unit := w.Dims[len(w.Dims)-1]
	deeper := []string{"memory", "controller"}
	cacher := []string{"llc"}
	switch scheme {
	case "nuCORALS":
		return Space{
			{Name: "tau", Values: []int{4, 8, 16, 32}, RelieveUp: []string{"controller", "interconnect"}},
			{Name: "baseHeight", Values: []int{4, 8, 16}, RelieveUp: deeper, RelieveDown: cacher},
			{Name: "baseExtent", Values: []int{16, 32, 64}, RelieveDown: cacher},
			{Name: "baseUnit", Values: []int{64, 128, unit}, RelieveDown: cacher},
		}, nil
	case "nuCATS":
		return Space{
			{Name: "segment", Values: []int{1, 2, 4, 8}, RelieveUp: deeper, RelieveDown: cacher},
		}, nil
	case "CATS":
		return Space{
			{Name: "segment", Values: []int{1, 2, 4, 8}, RelieveUp: deeper, RelieveDown: cacher},
			{Name: "width", Values: []int{0, 8, 16, 32}, RelieveDown: cacher},
		}, nil
	case "PLuTo":
		return Space{
			{Name: "timeBlock", Values: []int{4, 8, 16}, RelieveUp: deeper, RelieveDown: cacher},
			{Name: "width", Values: []int{16, 32, 64}, RelieveDown: cacher},
		}, nil
	default:
		return nil, fmt.Errorf("tune: no search space for scheme %q", scheme)
	}
}

// MeasureFor returns the measurement for a scheme name: each candidate
// executes for real through the public solver (Config.SchemeParams
// carries the setting), and its rate is the report's Gupdates/s.
func MeasureFor(scheme string, w Workload) (Measure, error) {
	if _, err := SpaceFor(scheme, w); err != nil {
		return nil, err
	}
	return func(ctx context.Context, s Setting) (float64, error) {
		out, _, err := execute(ctx, scheme, w, s, nustencil.RunSpec{})
		if err != nil {
			return 0, err
		}
		return out.Report.Gupdates(), nil
	}, nil
}

// execute runs one candidate setting of scheme on the workload through
// NewSolver and Execute, so the tuner times the same plan — in-tile
// traversal, cached dependencies, kernels — that a Config carrying the
// tuned setting later runs, and NewSolver rejects a setting key the
// scheme does not take. spec selects the observability; its Timesteps
// are the workload's. The timed Execute is the solver's second: the first
// builds the plan and runs cold (about 13% slower than a warm run on 98³
// nuCATS with 2 workers on a 2-vCPU host), and cold costs that differ by
// setting would reorder the ranking. It returns the solver with the
// output, for the tests.
func execute(ctx context.Context, scheme string, w Workload, s Setting, spec nustencil.RunSpec) (*nustencil.RunOutput, *nustencil.Solver, error) {
	solver, err := nustencil.NewSolver(nustencil.Config{
		Dims:              w.Dims,
		Timesteps:         w.Timesteps,
		Scheme:            nustencil.SchemeName(scheme),
		Workers:           w.Workers,
		LLCBytesPerWorker: w.LLCBytes,
		SchemeParams:      s,
	})
	if err != nil {
		return nil, nil, err
	}
	solver.SetInitial(func(pt []int) float64 { return float64(pt[0]&7) * 0.25 })
	spec.Timesteps = w.Timesteps
	if _, err := solver.Execute(ctx, nustencil.RunSpec{Timesteps: w.Timesteps}); err != nil {
		return nil, nil, err
	}
	out, err := solver.Execute(ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	if out.Report.Seconds <= 0 {
		return nil, nil, fmt.Errorf("tune: degenerate timing")
	}
	return out, solver, nil
}
