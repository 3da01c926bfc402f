package bench

import (
	"testing"
	"time"
)

// TestGaugesRun runs every gauge task, the ring-exchange one on one to
// three workers, and checks each sample is kept and scales.
func TestGaugesRun(t *testing.T) {
	cases := []struct {
		kind    Gauge
		workers int
	}{{CopyGauge, 1}, {SweepGauge, 2}, {HaloGauge, 1}, {HaloGauge, 2}, {HaloGauge, 3}}
	for _, c := range cases {
		h := newHostGauge(c.kind, c.workers, time.Millisecond)
		h.Sample()
		h.Sample()
		h.SampleSetup()
		if len(h.Times) != 2 || len(h.SetupTimes) != 1 {
			t.Fatalf("gauge %d on %d workers kept %d samples and %d set-up samples, want 2 and 1", c.kind, c.workers, len(h.Times), len(h.SetupTimes))
		}
		for _, s := range []float64{h.Scale(50), h.SetupScale(), h.MeanScale()} {
			if !(s > 0) {
				t.Fatalf("gauge %d on %d workers: scale %v, want positive", c.kind, c.workers, s)
			}
		}
	}
}
