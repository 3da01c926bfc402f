// Package stream implements the measurement side of Table I: a STREAM-style
// memory bandwidth benchmark (COPY/SCALE/ADD/TRIAD) and a register-resident
// multiply-add peak benchmark, matching how the paper obtained its machine
// parameters. internal/machine consumes these to build a model of the host,
// so the cost model can be calibrated to machines beyond the paper's two
// testbeds.
package stream

import (
	"fmt"
	"sync"
	"time"
)

// Result is one kernel's measured bandwidth.
type Result struct {
	Kernel string
	// Bytes is the total bytes moved per iteration (reads + writes).
	Bytes int64
	// Seconds is the best (minimum) time over the trials.
	Seconds float64
}

// GBps returns the achieved bandwidth in GB/s (1e9 bytes).
func (r Result) GBps() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Seconds / 1e9
}

func (r Result) String() string {
	return fmt.Sprintf("%-6s %8.2f GB/s", r.Kernel, r.GBps())
}

// Config controls a measurement run.
type Config struct {
	// Elements per array (default 4<<20: 32 MiB per array, larger than any
	// LLC of interest).
	Elements int
	// Workers is the number of parallel streams (default 1).
	Workers int
	// Trials to take the best of (default 3).
	Trials int
}

func (c Config) withDefaults() Config {
	if c.Elements <= 0 {
		c.Elements = 4 << 20
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Trials <= 0 {
		c.Trials = 3
	}
	return c
}

// kernels, per STREAM convention. Each returns the bytes moved per element.
type kernel struct {
	name string
	// bytesPerElem counts reads+writes of 8-byte words (write-allocate not
	// counted, matching STREAM's optimistic accounting).
	bytesPerElem int64
	run          func(a, b, c []float64)
}

var kernels = []kernel{
	{"COPY", 16, func(a, b, _ []float64) {
		copy(b, a)
	}},
	{"SCALE", 16, func(a, b, _ []float64) {
		for i := range b {
			b[i] = 3.0 * a[i]
		}
	}},
	{"ADD", 24, func(a, b, c []float64) {
		for i := range c {
			c[i] = a[i] + b[i]
		}
	}},
	{"TRIAD", 24, func(a, b, c []float64) {
		for i := range c {
			c[i] = a[i] + 3.0*b[i]
		}
	}},
}

// Measure runs the four STREAM kernels and returns their best-of-trials
// bandwidths in kernel order (COPY, SCALE, ADD, TRIAD).
func Measure(cfg Config) []Result {
	cfg = cfg.withDefaults()
	per := cfg.Elements / cfg.Workers
	if per < 1 {
		per = 1
	}
	type arrays struct{ a, b, c []float64 }
	arrs := make([]arrays, cfg.Workers)
	for w := range arrs {
		arrs[w] = arrays{
			a: make([]float64, per),
			b: make([]float64, per),
			c: make([]float64, per),
		}
		for i := range arrs[w].a {
			arrs[w].a[i] = 1.0
			arrs[w].b[i] = 2.0
		}
	}

	results := make([]Result, 0, len(kernels))
	for _, k := range kernels {
		best := 0.0
		for trial := 0; trial < cfg.Trials; trial++ {
			var wg sync.WaitGroup
			start := time.Now()
			for w := 0; w < cfg.Workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					k.run(arrs[w].a, arrs[w].b, arrs[w].c)
				}(w)
			}
			wg.Wait()
			sec := time.Since(start).Seconds()
			if best == 0 || sec < best {
				best = sec
			}
		}
		results = append(results, Result{
			Kernel:  k.name,
			Bytes:   k.bytesPerElem * int64(per) * int64(cfg.Workers),
			Seconds: best,
		})
	}
	return results
}

// Copy measures only the COPY kernel — the number Table I quotes.
func Copy(cfg Config) Result {
	cfg = cfg.withDefaults()
	all := Measure(Config{Elements: cfg.Elements, Workers: cfg.Workers, Trials: cfg.Trials})
	return all[0]
}

// PeakDP measures the double-precision multiply-add peak of n workers with
// a register-resident independent-FMA loop, Section IV-A's PeakDP
// methodology. It returns GFLOPS.
func PeakDP(workers int, duration time.Duration) float64 {
	if workers <= 0 {
		workers = 1
	}
	if duration <= 0 {
		duration = 50 * time.Millisecond
	}
	// Calibrate iterations to the requested duration on one worker.
	const flopsPerIter = 16 // 8 independent accumulators × (mul+add)
	iters := int64(1 << 20)
	// Each worker stores its loop's result in its own slot, so the compiler
	// keeps the loops and the workers share no memory.
	sums := make([]float64, workers)
	for {
		t := time.Now()
		sums[0] = fmaLoop(iters)
		if d := time.Since(t); d >= duration/4 {
			iters = int64(float64(iters) * duration.Seconds() / d.Seconds())
			if iters < 1 {
				iters = 1
			}
			break
		}
		iters *= 4
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums[w] = fmaLoop(iters)
		}()
	}
	wg.Wait()
	sec := time.Since(start).Seconds()
	return float64(iters) * flopsPerIter * float64(workers) / sec / 1e9
}

// fmaLoop runs iters rounds of eight independent multiply-adds and returns
// their sum.
func fmaLoop(iters int64) float64 {
	a0, a1, a2, a3 := 1.0, 1.1, 1.2, 1.3
	a4, a5, a6, a7 := 1.4, 1.5, 1.6, 1.7
	const m, c = 0.999999999, 1e-9
	for i := int64(0); i < iters; i++ {
		a0 = a0*m + c
		a1 = a1*m + c
		a2 = a2*m + c
		a3 = a3*m + c
		a4 = a4*m + c
		a5 = a5*m + c
		a6 = a6*m + c
		a7 = a7*m + c
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}
