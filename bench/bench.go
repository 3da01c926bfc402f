// Package bench is the repository's benchmark: the workload definitions,
// their seeded inputs, the open-loop job generator, the statistics
// helpers, and the result document the benchmark commands print.
//
// cmd/stencil-bench measures the end-to-end metrics through the public
// API (nustencil, server). cmd/stencil-bench-layers is the separate traced
// run: it recomposes the same work from the internal layers and reports
// per-layer metrics. Keeping the two apart means a change to an internal
// package can break only the per-layer command, never the end-to-end one.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"nustencil"
)

// ReferenceSeconds is the run length the workloads' operation counts are
// written for. A run of s seconds scales every count by s/ReferenceSeconds,
// so two commits measured with the same -seconds do identical work.
const ReferenceSeconds = 10

// Schemes are the paper's headline comparison. Solve workloads run them
// round-robin so host drift hits every scheme equally.
var Schemes = []nustencil.SchemeName{nustencil.Naive, nustencil.NuCATS, nustencil.NuCORALS}

// Workload is one set of inputs the benchmark runs. Solve workloads fill
// Problem/Steps/Rounds; the serving workload fills Serve. Why each one
// exists is in BENCHMARK.json and README.md.
type Workload struct {
	Name string
	// Problem is the solver configuration; Scheme is set per run.
	Problem nustencil.Config
	// Steps is the timestep count of one Execute.
	Steps int
	// Rounds is the number of round-robin rounds over Schemes in a run of
	// ReferenceSeconds.
	Rounds int
	// SetupReps is how many times each scheme's solver, or the server, is
	// set up; the last one set up is the one measured.
	SetupReps int
	Serve     *ServeParams
	// Gauge is the host gauge sharing the workload's bottleneck, and
	// Nominal its task's time on a quiet benchmark host (see Gauge). The
	// gauge runs on as many goroutines as the solver has workers, or on one
	// for the serving workload.
	Gauge   Gauge
	Nominal time.Duration
}

// Workloads returns the benchmark's workloads in their canonical order.
func Workloads() []Workload {
	cube := func(n int) []int { return []int{n, n, n} }
	return []Workload{
		{
			Name:    "large-7pt",
			Problem: nustencil.Config{Dims: cube(258), Workers: 2, NUMANodes: 2},
			Steps:   16, Rounds: 8, SetupReps: 3,
			Gauge: CopyGauge, Nominal: 5500 * time.Microsecond,
		},
		{
			Name: "small-7pt",
			// One worker: with two, about 0.06% of these tiny-tile Executes
			// fail with the engine's false ErrCycle.
			Problem: nustencil.Config{Dims: cube(34), Workers: 1, NUMANodes: 1},
			Steps:   4, Rounds: 5000, SetupReps: 50,
			Gauge: SweepGauge, Nominal: 225 * time.Microsecond,
		},
		{
			Name:    "dist-halo",
			Problem: nustencil.Config{Dims: cube(130), Workers: 2, Ranks: 2, ChareFactor: 8},
			Steps:   8, Rounds: 100, SetupReps: 5,
			// Not the copy gauge: between runs it moved 0.4 to 0.8 times as
			// far as this workload's rates. A chare's blocks fit the L2, and
			// each step waits on the other rank's halos.
			Gauge: HaloGauge, Nominal: 550 * time.Microsecond,
		},
		{
			Name:      "serve-mix",
			Serve:     &ServeParams{OpenSeconds: 20, ClosedJobs: 2000},
			SetupReps: 100,
			Gauge:     SweepGauge, Nominal: 225 * time.Microsecond,
		},
	}
}

// Tiny returns w shrunk to run in about a second, for the commands'
// tests: small grids, a few rounds and a few dozen jobs. It runs one
// worker, since the engine's false ErrCycle strikes tiny multi-worker
// runs often enough to make a test that demands no failures flaky.
func (w Workload) Tiny() Workload {
	w.SetupReps = min(w.SetupReps, 2)
	if w.Serve != nil {
		w.Serve = &ServeParams{OpenSeconds: 0.3, ClosedJobs: 30}
		return w
	}
	w.Problem.Workers = 1
	w.Problem.Dims = []int{18, 18, 18}
	w.Steps = min(w.Steps, 4)
	w.Rounds = 3
	return w
}

// Lookup returns the named workload.
func Lookup(name string) (Workload, error) {
	var names []string
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return Workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// Scale returns n scaled from ReferenceSeconds to seconds, at least 1.
func Scale(n, seconds int) int {
	s := n * seconds / ReferenceSeconds
	if s < 1 {
		return 1
	}
	return s
}

// Interior returns the number of updatable cells of a Dirichlet grid.
func Interior(dims []int, order int) int64 {
	if order == 0 {
		order = 1
	}
	n := int64(1)
	for _, d := range dims {
		n *= int64(d - 2*order)
	}
	return n
}

// Field returns the seeded initial condition: a reproducible value in
// [0, 1) per grid point, a pure function of the seed and the point.
func Field(seed int64) func(pt []int) float64 {
	return func(pt []int) float64 {
		h := uint64(seed)
		for _, c := range pt {
			h = splitmix64(h ^ uint64(c))
		}
		return float64(h>>11) / (1 << 53)
	}
}

// FieldState returns Field(seed) over dims as a flat row-major slice, the
// form Solver.Import takes.
func FieldState(dims []int, seed int64) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	f := Field(seed)
	out := make([]float64, n)
	pt := make([]int, len(dims))
	for i := range out {
		out[i] = f(pt)
		for k := len(pt) - 1; k >= 0; k-- {
			if pt[k]++; pt[k] < dims[k] {
				break
			}
			pt[k] = 0
		}
	}
	return out
}

func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the document a benchmark command prints as its last line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// Report collects a run's metrics and the human-readable line for each.
type Report struct {
	Workload string
	Result
	notes map[string]string
	// Errs are the verification failures; any makes the run incorrect.
	Errs []error
}

// NewReport starts an empty report for a workload.
func NewReport(workload string) *Report {
	return &Report{
		Workload: workload,
		Result:   Result{Metrics: map[string]Metric{}},
		notes:    map[string]string{},
	}
}

// Add records a metric; note, when non-empty, is printed after it (the
// sample count, the percentile a tail fell back to).
func (r *Report) Add(name string, v float64, unit, note string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// Failf records a verification failure.
func (r *Report) Failf(format string, args ...any) {
	r.Errs = append(r.Errs, fmt.Errorf(format, args...))
}

// Write prints every metric as "workload metric value unit", the
// verification failures, and the result document as the last line.
func (r *Report) Write(w io.Writer) error {
	r.Correct = len(r.Errs) == 0
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(&b, "%s %s %.6g %s", r.Workload, n, m.Value, m.Unit)
		if note := r.notes[n]; note != "" {
			fmt.Fprintf(&b, "  (%s)", note)
		}
		b.WriteByte('\n')
	}
	frac := 0.0
	if r.Attempted > 0 {
		frac = float64(r.Failed) / float64(r.Attempted)
	}
	fmt.Fprintf(&b, "%s fail_frac %.6g ratio  (%d failed of %d attempted)\n", r.Workload, frac, r.Failed, r.Attempted)
	for _, err := range r.Errs {
		fmt.Fprintf(&b, "%s VERIFY FAILED: %v\n", r.Workload, err)
	}
	for n, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no NaN/Inf; a metric that could not be measured is
			// reported as -1 and noted above.
			fmt.Fprintf(&b, "%s %s not measured\n", r.Workload, n)
			r.Metrics[n] = Metric{Value: -1, Unit: m.Unit}
		}
	}
	doc, err := json.Marshal(r.Result)
	if err != nil {
		return err
	}
	b.Write(doc)
	b.WriteByte('\n')
	_, err = io.WriteString(w, b.String())
	return err
}

// Ms converts seconds to milliseconds.
func Ms(sec float64) float64 { return sec * 1e3 }
