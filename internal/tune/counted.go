package tune

import (
	"context"
	"fmt"

	"nustencil"
)

// MeasureCountedFor returns the counter-instrumented measurement for a
// scheme name: each candidate executes for real through the public solver
// (Config.SchemeParams carries the setting) with simulated performance
// counters priced on the named Table-I machine, and the attribution's
// bottleneck verdict rides along with the rate to steer FeedbackSearch.
// An empty machine name uses the solver's default (XeonX7550).
func MeasureCountedFor(scheme string, w Workload, machine string) (MeasureCounted, error) {
	if _, err := SpaceFor(scheme, w); err != nil {
		return nil, err
	}
	return func(ctx context.Context, s Setting) (CountedSample, error) {
		solver, err := nustencil.NewSolver(nustencil.Config{
			Dims:              w.Dims,
			Timesteps:         w.Timesteps,
			Scheme:            nustencil.SchemeName(scheme),
			Workers:           w.Workers,
			LLCBytesPerWorker: w.LLCBytes,
			SchemeParams:      s,
		})
		if err != nil {
			return CountedSample{}, err
		}
		solver.SetInitial(func(pt []int) float64 { return float64(pt[0]&7) * 0.25 })
		out, err := solver.Execute(ctx, nustencil.RunSpec{
			Timesteps:    w.Timesteps,
			Counters:     true,
			Machine:      nustencil.MachineName(machine),
			SamplePeriod: -1, // rates and attribution only; no sampler thread
		})
		if err != nil {
			return CountedSample{}, err
		}
		if out.Report.Seconds <= 0 {
			return CountedSample{}, fmt.Errorf("tune: degenerate timing")
		}
		b := out.Counters.Bottleneck()
		return CountedSample{
			Gupdates:   out.Report.Gupdates(),
			Bottleneck: b.Bottleneck,
			Margin:     b.Margin,
		}, nil
	}, nil
}
