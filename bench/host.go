package bench

import (
	"sync"
	"time"
)

// Gauge names the benchmark's own measure of how fast the shared host runs
// at the moment. The benchmark host's speed swings by tens of percent over
// seconds to minutes (other tenants' memory traffic, busy sibling
// hyperthreads), often between two distinct speeds, and every run-level
// statistic swings with it. A solve workload therefore times a fixed gauge
// task that shares its bottleneck, interleaved with its operations, and
// reports each statistic of its operation times scaled by the same
// statistic of the gauge times: the median by the median, the p90 by the
// p90, the mean by the mean. Both see the same mixture of host speeds, so
// the mixture cancels. Set-up times are scaled by gauge samples taken just
// before each set-up. The serving workload times its gauge while its
// server is idle, between parts of its load (see RunServe). The gauge never
// runs beside the program, and its task is a plain Go loop written here,
// so no change to the program moves it.
type Gauge int

const (
	// CopyGauge copies 32 MB per worker between two arrays: the gauge of
	// memory-bound workloads.
	CopyGauge Gauge = iota
	// SweepGauge runs 4 serial 7-point Jacobi steps on a cache-resident
	// 34³ grid per worker: the gauge of CPU-bound workloads.
	SweepGauge
	// HaloGauge is SweepGauge with the workers handing a token round a
	// ring after every step, as chares exchanging halos do.
	HaloGauge
)

const (
	copyElems = 4 << 20
	sweepN    = 34
	sweepT    = 4
)

// HostGauge times one gauge task and keeps the timings. The task runs on
// as many goroutines as the workload keeps busy, each on its own arrays,
// and takes as long as the slowest.
type HostGauge struct {
	kind Gauge
	// nominal is the task's time on a quiet benchmark host.
	nominal  time.Duration
	src, dst [][]float64
	// ring holds each worker's incoming token of HaloGauge.
	ring []chan struct{}
	// Times are the task's timings in seconds between the workload's
	// operations, and SetupTimes those taken just before each set-up.
	Times, SetupTimes []float64
}

// newHostGauge allocates a gauge running on workers goroutines whose task
// takes nominal on a quiet benchmark host.
func newHostGauge(kind Gauge, workers int, nominal time.Duration) *HostGauge {
	n := copyElems
	if kind != CopyGauge {
		n = sweepN * sweepN * sweepN
	}
	h := &HostGauge{kind: kind, nominal: nominal}
	for w := 0; w < workers; w++ {
		src, dst := make([]float64, n), make([]float64, n)
		for i := range src {
			src[i] = float64(i%7) * 0.1
		}
		h.src, h.dst = append(h.src, src), append(h.dst, dst)
		h.ring = append(h.ring, make(chan struct{}, 1))
	}
	return h
}

// Sample times the task once between the workload's operations.
func (h *HostGauge) Sample() { h.Times = append(h.Times, h.run()) }

// SampleSetup times the task once just before a set-up.
func (h *HostGauge) SampleSetup() { h.SetupTimes = append(h.SetupTimes, h.run()) }

// run runs the task once and returns its time in seconds.
func (h *HostGauge) run() float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := range h.src {
		wg.Add(1)
		go func(w int, src, dst []float64) {
			defer wg.Done()
			switch h.kind {
			case CopyGauge:
				copy(dst, src)
			case SweepGauge:
				for s := 0; s < sweepT; s++ {
					sweep(src, dst)
					src, dst = dst, src
				}
			case HaloGauge:
				for s := 0; s < sweepT; s++ {
					sweep(src, dst)
					src, dst = dst, src
					h.ring[(w+1)%len(h.ring)] <- struct{}{}
					<-h.ring[w]
				}
			}
		}(w, h.src[w], h.dst[w])
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// Scale returns the factor mapping the p-th percentile of operation
// times to the nominal host: the gauge's nominal time over its own p-th
// percentile time. Multiply times by it, divide rates by it.
func (h *HostGauge) Scale(p float64) float64 { return h.nominal.Seconds() / Percentile(h.Times, p) }

// SetupScale is Scale(50) over the samples taken before the set-ups:
// multiply median set-up times by it.
func (h *HostGauge) SetupScale() float64 { return h.nominal.Seconds() / Median(h.SetupTimes) }

// MeanScale is Scale for means: multiply mean times by it, divide
// throughputs by it.
func (h *HostGauge) MeanScale() float64 {
	var sum float64
	for _, t := range h.Times {
		sum += t
	}
	return h.nominal.Seconds() * float64(len(h.Times)) / sum
}

// sweep runs one 7-point Jacobi step of a sweepN³ grid from src to dst.
func sweep(src, dst []float64) {
	const n = sweepN
	for i := 1; i < n-1; i++ {
		for j := 1; j < n-1; j++ {
			row := (i*n + j) * n
			for k := row + 1; k < row+n-1; k++ {
				dst[k] = 0.4*src[k] + 0.1*(src[k-1]+src[k+1]+src[k-n]+src[k+n]+src[k-n*n]+src[k+n*n])
			}
		}
	}
}
