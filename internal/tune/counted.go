package tune

import (
	"context"

	"nustencil"
)

// MeasureCountedFor returns the counter-instrumented measurement for a
// scheme name: each candidate executes like MeasureFor's, with simulated
// performance counters priced on the named Table-I machine, and the
// attribution's bottleneck verdict rides along with the rate to steer
// FeedbackSearch. An empty machine name uses the solver's default
// (XeonX7550).
func MeasureCountedFor(scheme string, w Workload, machine string) (MeasureCounted, error) {
	if _, err := SpaceFor(scheme, w); err != nil {
		return nil, err
	}
	return func(ctx context.Context, s Setting) (CountedSample, error) {
		out, _, err := execute(ctx, scheme, w, s, nustencil.RunSpec{
			Counters:     true,
			Machine:      nustencil.MachineName(machine),
			SamplePeriod: -1, // rates and attribution only; no sampler thread
		})
		if err != nil {
			return CountedSample{}, err
		}
		b := out.Counters.Bottleneck()
		return CountedSample{
			Gupdates:   out.Report.Gupdates(),
			Bottleneck: b.Bottleneck,
			Margin:     b.Margin,
		}, nil
	}, nil
}
