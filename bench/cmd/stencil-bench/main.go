// Command stencil-bench measures one benchmark workload end to end
// through the public API and prints its metrics, one
// "workload metric value unit" line each, then the result document as
// one JSON line. It exits non-zero if any output fails verification.
//
//	stencil-bench --workload large-7pt --seed 1 --seconds 10 --trace 0
//
// Per-layer metrics come from the separate traced run,
// stencil-bench-layers, which takes the same flags.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"nustencil/bench"
)

func main() {
	name := flag.String("workload", "", "workload to run (large-7pt, small-7pt, dist-halo, serve-mix)")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", bench.ReferenceSeconds, "run length the operation counts are scaled to")
	traced := flag.Int("trace", 0, "must be 0: per-layer metrics come from stencil-bench-layers")
	flag.Parse()
	err := func() error {
		if *traced != 0 {
			return errors.New("--trace 1 is served by stencil-bench-layers")
		}
		if *seconds < 1 {
			return fmt.Errorf("--seconds must be positive, got %d", *seconds)
		}
		w, err := bench.Lookup(*name)
		if err != nil {
			return err
		}
		return run(os.Stdout, w, *seed, *seconds)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stencil-bench:", err)
		os.Exit(1)
	}
}

// run measures w and writes its report; a failed verification is an
// error after the report is written.
func run(out io.Writer, w bench.Workload, seed int64, seconds int) error {
	rep, err := measure(w, seed, seconds)
	if err != nil {
		return err
	}
	if err := rep.Write(out); err != nil {
		return err
	}
	if !rep.Correct {
		return fmt.Errorf("%s: %d outputs failed verification", w.Name, len(rep.Errs))
	}
	return nil
}

// measure runs w and collects its end-to-end metrics.
func measure(w bench.Workload, seed int64, seconds int) (*bench.Report, error) {
	if w.Serve != nil {
		return measureServe(w, seed, seconds)
	}
	return measureSolve(w, seed, seconds)
}

// measureServe runs the serving workload. Its gauge is timed only while
// the server is idle, between load parts, so it cannot be matched
// statistic for statistic. Every time and rate is scaled by the square
// root of the gauge-median factor: across runs the served metrics moved
// about half as far as the gauge, on a log scale, because only part of a
// served job is the kind of work the gauge does. Each line's note keeps
// the raw value and the scale.
func measureServe(w bench.Workload, seed int64, seconds int) (*bench.Report, error) {
	rep := bench.NewReport(w.Name)
	run, err := bench.RunServe(w, seed, seconds, rep)
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = run.Attempted, run.Failed
	m := metrics{rep: rep, host: run.Host}
	m.setup(bench.Median(bench.Durations(run.Setup)), fmt.Sprintf("median server start to its first job finished, n=%d", len(run.Setup)))
	s := math.Sqrt(run.Host.Scale(50))
	mix := bench.JobMix()
	rates := run.ServedRates(mix)
	for _, sc := range bench.Schemes {
		k, err := bench.SchemeKind(mix, sc)
		if err != nil {
			return nil, err
		}
		raw := bench.Median(rates[k.Name])
		m.add("gupdates_per_s."+string(sc), raw/s, raw, s, "Gupdates/s",
			fmt.Sprintf("median served %s job, updates over executor run time incl. solver build and cold plan, n=%d", k.Name, len(rates[k.Name])))
	}
	secs := run.Latencies()
	n := len(secs)
	const how = "open loop, due time to Finished"
	raw := bench.Ms(bench.Median(secs))
	m.add("job_ms_p50", raw*s, raw, s, "ms", fmt.Sprintf("%s, n=%d", how, n))
	raw = bench.Ms(bench.Percentile(secs, float64(bench.TailPercentile(n, tailWant))))
	m.add("job_ms_tail", raw*s, raw, s, "ms", how+", "+bench.TailNote(n, tailWant))
	done := 0
	for i := range run.Closed {
		if run.Closed[i].OK() {
			done++
		}
	}
	raw = float64(done) / run.ClosedWall.Seconds()
	m.add("jobs_per_s", raw/s, raw, s, "1/s", fmt.Sprintf("closed loop, %d jobs", len(run.Closed)))
	rep.Add("heap_mb", float64(run.HeapBytes)/1e6, "MB", fmt.Sprintf("%d jobs retained", run.Retained))
	return rep, nil
}

// measureSolve runs a solve workload. Each time-based statistic is scaled
// to the nominal host by the same statistic of the run's gauge timings
// (see bench.Gauge); each line's note keeps the raw value and the scale.
func measureSolve(w bench.Workload, seed int64, seconds int) (*bench.Report, error) {
	rep := bench.NewReport(w.Name)
	run, err := bench.RunSolve(w, seed, seconds, rep)
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = run.Attempted, run.Failed
	m := metrics{rep: rep, host: run.Host}
	m.setup(run.SetupTotal(), fmt.Sprintf("sum over schemes of the median NewSolver + fill + cold Execute, n=%d each", w.SetupReps))
	for _, sc := range bench.Schemes {
		m.rate("gupdates_per_s."+string(sc), bench.Median(run.Rate[sc]), "Gupdates/s",
			fmt.Sprintf("median per warm Execute, updates over wall time, n=%d", len(run.Rate[sc])))
	}
	secs := bench.Durations(run.Exec)
	var busy float64
	for _, s := range secs {
		busy += s
	}
	m.latency(secs, "Execute wall time")
	m.throughput("jobs_per_s", float64(len(secs))/busy, "1/s", "Execute calls per second of Execute time")
	rep.Add("heap_mb", float64(run.HeapBytes)/1e6, "MB", "solvers held")
	return rep, nil
}

// tailWant is the tail percentile reported: p99 latency swings by a third
// between runs on a shared host, p90 holds steady.
const tailWant = 90

// metrics adds host-scaled metrics to a report.
type metrics struct {
	rep  *bench.Report
	host *bench.HostGauge
}

func (m metrics) add(name string, v, raw, scale float64, unit, how string) {
	m.rep.Add(name, v, unit, fmt.Sprintf("%s; raw %.6g %s, host scale %.3f", how, raw, unit, scale))
}

// rate adds a median rate, divided by the median scale.
func (m metrics) rate(name string, raw float64, unit, how string) {
	s := m.host.Scale(50)
	m.add(name, raw/s, raw, s, unit, how)
}

// throughput adds operations per second, divided by the mean scale.
func (m metrics) throughput(name string, raw float64, unit, how string) {
	s := m.host.MeanScale()
	m.add(name, raw/s, raw, s, unit, how)
}

// setup adds setup_s from median set-up times, multiplied by the square
// root of the scale of the gauge samples taken just before the set-ups:
// across runs, set-up times moved about half as far as those samples, on a
// log scale, since allocation and plan building are only partly the kind
// of work the gauge does.
func (m metrics) setup(raw float64, how string) {
	s := math.Sqrt(m.host.SetupScale())
	m.add("setup_s", raw*s, raw, s, "s", how)
}

// time adds the p-th percentile of some times, multiplied by the p-th
// percentile scale.
func (m metrics) time(name string, raw, p float64, unit, how string) {
	s := m.host.Scale(p)
	m.add(name, raw*s, raw, s, unit, how)
}

// latency adds the median and the tail of latencies given in seconds.
func (m metrics) latency(secs []float64, what string) {
	n := len(secs)
	p := float64(bench.TailPercentile(n, tailWant))
	m.time("job_ms_p50", bench.Ms(bench.Median(secs)), 50, "ms", fmt.Sprintf("%s, n=%d", what, n))
	m.time("job_ms_tail", bench.Ms(bench.Percentile(secs, p)), p, "ms", what+", "+bench.TailNote(n, tailWant))
}
