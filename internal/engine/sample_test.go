package engine

import (
	"sync/atomic"
	"testing"
	"time"

	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
)

// Run delivers periodic scheduler samples with sane fields, and the last
// delivery happens before the run returns.
func TestSamplerDeliversDuringRun(t *testing.T) {
	interior := grid.NewBox([]int{0}, []int{40})
	tiles := sliceTiling(interior, 6, []int{10, 20, 30}, []int{0, 1, 2, 3})
	var samples []Sample
	cfg := Config{
		Workers:     4,
		Order:       1,
		SampleEvery: 50 * time.Microsecond,
		OnSample:    func(s Sample) { samples = append(samples, s) },
		Exec: func(w int, tile *spacetime.Tile) int64 {
			time.Sleep(200 * time.Microsecond)
			return 1
		},
	}
	if _, err := Run(tiles, cfg); err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples delivered")
	}
	// The happens-before contract makes the unsynchronized append above
	// legal; the count must be stable once the run has returned.
	n := len(samples)
	time.Sleep(2 * time.Millisecond)
	if len(samples) != n {
		t.Error("samples delivered after the run returned")
	}
	var prev time.Duration
	for i, s := range samples {
		if s.Elapsed < prev {
			t.Errorf("sample %d elapsed %v < previous %v", i, s.Elapsed, prev)
		}
		prev = s.Elapsed
		if s.Ready < 0 || s.Ready > len(tiles) {
			t.Errorf("sample %d ready %d out of [0,%d]", i, s.Ready, len(tiles))
		}
		if s.Idle < 0 || s.Idle > cfg.Workers {
			t.Errorf("sample %d idle %d out of [0,%d]", i, s.Idle, cfg.Workers)
		}
	}
}

// Sampling off (the default) starts no goroutine and calls nothing.
func TestSamplerOffByDefault(t *testing.T) {
	interior := grid.NewBox([]int{0}, []int{20})
	tiles := sliceTiling(interior, 2, []int{10}, []int{0, 1})
	var calls atomic.Int64
	_, err := Run(tiles, Config{
		Workers:  2,
		Order:    1,
		OnSample: func(Sample) { calls.Add(1) }, // no SampleEvery: must stay silent
		Exec:     func(int, *spacetime.Tile) int64 { return 1 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("OnSample called %d times without SampleEvery", n)
	}
}
