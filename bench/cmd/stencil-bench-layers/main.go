// Command stencil-bench-layers is the benchmark's traced run. It runs a
// workload with the same seed and operation counts as stencil-bench, but
// recomposes the work from the internal layers and times each call into
// them from its own code, so nothing inside the program is instrumented.
// It prints the per-layer metrics, one "workload metric value unit" line
// each, then the result document as one JSON line, and writes the spans
// as Chrome trace JSON (checked with trace.CheckChrome).
//
//	stencil-bench-layers --workload small-7pt --seed 1 --seconds 10 --trace 1
//
// The recomposed runs must end bit-identical to the Execute path; any
// mismatch exits non-zero.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"nustencil"
	"nustencil/bench"
	"nustencil/internal/grid"
	"nustencil/internal/stream"
	"nustencil/internal/trace"
	"nustencil/internal/verify"
	"nustencil/server"
)

const (
	// serveProbeRounds is the warm-round count of the serving workload's
	// per-kind layer probes: served jobs run cold, so a few warm rounds
	// only anchor the kernel rate.
	serveProbeRounds = 20
	// replayJobs bounds the open-loop jobs replayed through RunLocal.
	replayJobs = 200
	// streamElements sizes the host STREAM copy: 64 MB per array.
	streamElements = 8 << 20
)

func main() {
	name := flag.String("workload", "", "workload to run (large-7pt, small-7pt, dist-halo, serve-mix)")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", bench.ReferenceSeconds, "run length the operation counts are scaled to")
	traced := flag.Int("trace", 1, "must be 1: end-to-end metrics come from stencil-bench")
	spansPath := flag.String("spans", "", "Chrome trace output (default .bench_build/spans-<workload>.json)")
	flag.Parse()
	err := func() error {
		if *traced != 1 {
			return errors.New("--trace 0 is served by stencil-bench")
		}
		if *seconds < 1 {
			return fmt.Errorf("--seconds must be positive, got %d", *seconds)
		}
		w, err := bench.Lookup(*name)
		if err != nil {
			return err
		}
		path := *spansPath
		if path == "" {
			path = filepath.Join(".bench_build", "spans-"+w.Name+".json")
		}
		return run(os.Stdout, w, *seed, *seconds, path)
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "stencil-bench-layers:", err)
		os.Exit(1)
	}
}

// run measures w, writes the spans to path and the report to out; a
// failed verification is an error after the report is written.
func run(out io.Writer, w bench.Workload, seed int64, seconds int, path string) error {
	rep, err := measure(w, seed, seconds, path)
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

// host is the hardware context a run's layer numbers are judged against.
type host struct {
	stream0, stream1 float64 // STREAM copy GB/s at start and end
	peak             float64 // GFLOP/s
	verify           float64 // serial reference Gupdates/s
}

// layerRun is everything a traced run measured.
type layerRun struct {
	host     host
	solves   []*solveProbe
	dists    []*distProbe
	serve    *bench.ServeRun
	runLocal []time.Duration
}

func measure(w bench.Workload, seed int64, seconds int, path string) (*bench.Report, error) {
	rep := bench.NewReport(w.Name)
	sp := newSpans()
	root := sp.open("workload "+w.Name, 0, 0)
	lr := &layerRun{}
	lr.host.stream0 = streamCopy(sp, root)
	// PeakDP's workers share one result sink, a race the race detector
	// reports; time one worker and scale by the CPU count instead.
	sp.timed("stream.PeakDP", root, 0, func() {
		lr.host.peak = stream.PeakDP(1, 200*time.Millisecond) * float64(runtime.NumCPU())
	})

	var err error
	if w.Serve != nil {
		err = measureServe(sp, root, w, seed, seconds, rep, lr)
	} else {
		lr.host.verify = verifyRate(sp, root, w, seed)
		for _, sc := range bench.Schemes {
			cfg := w.Problem
			cfg.Scheme = sc
			if err = lr.probe(sp, root, cfg, w.Steps, bench.Scale(w.Rounds, seconds), seed, rep); err != nil {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	lr.host.stream1 = streamCopy(sp, root)
	sp.close(root)

	addMetrics(rep, lr)
	rep.Add("trace.spans", float64(sp.count()), "count", path)
	if err := sp.write(path); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if _, err := trace.CheckChrome(data); err != nil {
		rep.Failf("span file %s: %v", path, err)
	}
	return rep, nil
}

// measureServe runs the serving workload as stencil-bench does, records
// each job's client and server spans, replays the first open-loop jobs
// through RunLocal outside the server, and probes each job kind's layers.
func measureServe(sp *spans, root int, w bench.Workload, seed int64, seconds int, rep *bench.Report, lr *layerRun) error {
	mix := bench.JobMix()
	run, err := bench.RunServe(w, seed, seconds, rep)
	if err != nil {
		return err
	}
	lr.serve = run
	rep.Attempted += run.Attempted
	rep.Failed += run.Failed
	op := 0
	for _, loop := range []struct {
		recs []bench.JobRecord
		tid  int
	}{{run.Open, tidSender}, {run.Closed, tidCaller}} {
		for i := range loop.recs {
			rec := &loop.recs[i]
			op++
			id := sp.add("server POST /jobs", loop.tid, root, op, rec.SentAt, rec.SentAt.Add(rec.Submit))
			if !rec.Job.Started.IsZero() {
				sp.add("server.queue", tidServer, id, op, rec.Job.Submitted, rec.Job.Started)
				sp.add("server.run", tidServer, id, op, rec.Job.Started, rec.Job.Finished)
			}
		}
	}

	for i := 0; i < len(run.Open) && i < replayJobs; i++ {
		spec := run.Open[i].Spec(mix)
		rep.Attempted++
		var err error
		_, d := sp.timed("server.RunLocal", root, i+1, func() { _, err = server.RunLocal(context.Background(), spec) })
		if err != nil {
			rep.Failed++
			continue
		}
		lr.runLocal = append(lr.runLocal, d)
	}

	for _, k := range mix {
		if err := lr.probe(sp, root, k.Spec.Problem, k.Spec.Run.Timesteps, serveProbeRounds, seed, rep); err != nil {
			return err
		}
	}
	first := bench.Workload{Problem: mix[0].Spec.Problem, Steps: mix[0].Spec.Run.Timesteps}
	lr.host.verify = verifyRate(sp, root, first, seed)
	return nil
}

// probe runs the layer probe of cfg's execution path and keeps it.
func (lr *layerRun) probe(sp *spans, root int, cfg nustencil.Config, steps, rounds int, seed int64, rep *bench.Report) error {
	if cfg.Ranks > 1 {
		p, err := probeDist(sp, root, cfg, steps, rounds, seed, rep)
		if err == nil {
			lr.dists = append(lr.dists, p)
		}
		return err
	}
	p, err := probeSolve(sp, root, cfg, steps, rounds, seed, rep)
	if err == nil {
		lr.solves = append(lr.solves, p)
	}
	return err
}

// streamCopy measures the host's STREAM copy bandwidth with one worker
// per CPU.
func streamCopy(sp *spans, root int) float64 {
	var gbs float64
	sp.timed("stream.Copy", root, 0, func() {
		gbs = stream.Copy(stream.Config{Elements: streamElements, Workers: runtime.NumCPU()}).GBps()
	})
	return gbs
}

// verifyRate times the serial reference solver on w's problem: the
// single-thread baseline.
func verifyRate(sp *spans, root int, w bench.Workload, seed int64) float64 {
	cfg := withDefaults(w.Problem)
	g := grid.New(cfg.Dims)
	g.FillFunc(bench.Field(seed))
	_, op := kernelFor(cfg, g)
	var n int64
	_, d := sp.timed("verify.Solve", root, 0, func() { n = verify.Solve(op, w.Steps) })
	return float64(n) / d.Seconds() / 1e9
}
