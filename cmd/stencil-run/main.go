// Command stencil-run executes an iterative stencil computation with any of
// the library's schemes on the local machine and reports the achieved rate.
//
// Example:
//
//	stencil-run -scheme nuCORALS -dims 130x130x130 -steps 50 -workers 8
//
// Machine-readable output: -json <path> writes the run report (rates,
// per-worker updates, scheduler counters) as JSON, -trace-json <path>
// writes the execution timeline in Chrome trace-event format (loadable in
// Perfetto or chrome://tracing; with -ranks N the trace spans one process
// per rank, with halo flow arrows between them and migration/AtSync
// markers), -counters-json <path> the simulated
// performance counters with their bottleneck attribution, and -prom <path>
// the same counters in Prometheus text format. Every path accepts "-" for
// stdout; when more than one JSON output targets stdout they are wrapped
// in a single {"report","trace","counters"} envelope so stdout always
// carries exactly one JSON document.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"nustencil"

	"nustencil/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stencil-run: ")
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// runDoc is the envelope stencil-run -json writes: the configuration the
// run executed with, the report, (when tracing was on) the trace digest,
// and (when counters were on) the bottleneck attribution.
type runDoc struct {
	Dims         []int                       `json:"dims"`
	Periodic     bool                        `json:"periodic,omitempty"`
	Pinned       bool                        `json:"pinned,omitempty"`
	Ranks        int                         `json:"ranks,omitempty"`
	Report       nustencil.Report            `json:"report"`
	TraceSummary *nustencil.TraceSummary     `json:"trace_summary,omitempty"`
	Bottleneck   *nustencil.BottleneckReport `json:"bottleneck,omitempty"`
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stencil-run", flag.ContinueOnError)
	scheme := fs.String("scheme", "nuCORALS", "tiling scheme: NaiveSSE, CATS, nuCATS, CORALS, nuCORALS, Pochoir, PLuTo")
	dims := fs.String("dims", "130x130x130", "grid dimensions, e.g. 130x130x130 (boundary included)")
	steps := fs.Int("steps", 50, "Jacobi timesteps")
	workers := fs.Int("workers", 0, "worker threads (default NumCPU)")
	order := fs.Int("order", 1, "stencil order s")
	banded := fs.Bool("banded", false, "variable coefficients (banded matrix)")
	nodes := fs.Int("nodes", 1, "modeled NUMA nodes for page-ownership accounting")
	llc := fs.Int64("llc", 1<<20, "last-level cache bytes per worker (cache-aware schemes)")
	pin := fs.Bool("pin", false, "best-effort pin worker threads to CPUs (Linux)")
	verify := fs.Bool("verify", false, "cross-check the result against a single-process naive run")
	ranks := fs.Int("ranks", 0, "simulated distributed ranks; >1 runs the chare-based halo-exchange layer")
	chares := fs.Int("chares", 0, "chares per rank for -ranks runs (overdecomposition factor; 0 = default)")
	traceW := fs.Int("trace", 0, "render an execution timeline this many columns wide")
	periodic := fs.Bool("periodic", false, "periodic (torus) boundaries; implies the naive scheme")
	timeout := fs.Duration("timeout", 0, "abort the run after this wall-clock budget, e.g. 30s (0 = none)")
	jsonPath := fs.String("json", "", "write the run report as JSON to this path (- for stdout)")
	traceJSONPath := fs.String("trace-json", "", "write the execution timeline as Chrome trace-event JSON to this path (- for stdout)")
	counters := fs.Bool("counters", false, "collect simulated performance counters and print the bottleneck attribution")
	countersJSONPath := fs.String("counters-json", "", "write the simulated counters and attribution as JSON to this path (- for stdout; implies -counters)")
	promPath := fs.String("prom", "", "write the simulated counters in Prometheus text format to this path (- for stdout; implies -counters)")
	machineName := fs.String("machine", "xeonx7550", "modeled machine pricing the counters: opteron8222, xeonx7550, host")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	d, err := cliutil.ParseDims(*dims)
	if err != nil {
		return err
	}
	cfg := nustencil.Config{
		Dims:              d,
		Order:             *order,
		Banded:            *banded,
		Timesteps:         *steps,
		Scheme:            nustencil.SchemeName(*scheme),
		Workers:           *workers,
		NUMANodes:         *nodes,
		LLCBytesPerWorker: *llc,
		PinThreads:        *pin,
		Periodic:          *periodic,
		Ranks:             *ranks,
		ChareFactor:       *chares,
	}
	if *periodic {
		cfg.Scheme = nustencil.Naive
	}
	// Every flag combination collapses into one RunSpec: which outputs the
	// user asked for decides what the single Execute call collects.
	spec := nustencil.RunSpec{
		Timesteps:     *steps,
		Trace:         *traceW > 0 || *traceJSONPath != "",
		TimelineWidth: *traceW,
		Counters:      *counters || *countersJSONPath != "" || *promPath != "",
	}
	if spec.Counters {
		spec.Machine = nustencil.MachineName(*machineName)
	}
	// stdout carries at most one JSON document: "-" outputs buffer here and
	// either stream directly (one doc) or wrap in a single envelope (more).
	var stdoutDocs []jsonDoc
	if *promPath == "-" {
		for _, p := range []string{*jsonPath, *traceJSONPath, *countersJSONPath} {
			if p == "-" {
				return fmt.Errorf("-prom - cannot share stdout with another \"-\" output (Prometheus text cannot join the JSON envelope); write one of them to a file")
			}
		}
	}

	out, probe, err := run(ctx, cfg, spec)
	if err != nil {
		return err
	}
	rep, tr, pc := out.Report, out.Trace, out.Counters
	fmt.Fprintf(stdout, "scheme     %s\n", rep.Scheme)
	fmt.Fprintf(stdout, "domain     %s, %d timesteps, order %d, banded=%v\n", *dims, *steps, *order, *banded)
	fmt.Fprintf(stdout, "workers    %d\n", rep.Workers)
	fmt.Fprintf(stdout, "kernel     %s\n", rep.Kernel)
	if *ranks > 1 {
		fmt.Fprintf(stdout, "ranks      %d (distributed halo exchange)\n", *ranks)
	}
	fmt.Fprintf(stdout, "tiles      %d\n", rep.Tiles)
	fmt.Fprintf(stdout, "updates    %d\n", rep.Updates)
	fmt.Fprintf(stdout, "time       %.4f s\n", rep.Seconds)
	fmt.Fprintf(stdout, "rate       %.4f Gupdates/s (%.2f GFLOPS at %d flops/update)\n",
		rep.Gupdates(), rep.GFLOPS(), rep.FlopsPerUpdate)
	if rep.Imbalance > 0 {
		fmt.Fprintf(stdout, "imbalance  %.2f (max/mean worker busy time)\n", rep.Imbalance)
		fmt.Fprintf(stdout, "utilization %.2f (busy share of the workers' time)\n", rep.Utilization)
	}
	if d := rep.Dist; d != nil {
		fmt.Fprintf(stdout, "halo       %d msgs, %d bytes (latency p50 %v, p99 %v)\n",
			d.HaloMsgs, d.HaloBytes, d.HaloLatency.Quantile(0.5), d.HaloLatency.Quantile(0.99))
		fmt.Fprintf(stdout, "barrier    wait p50 %v, p99 %v over %d rank-segments\n",
			d.BarrierWait.Quantile(0.5), d.BarrierWait.Quantile(0.99), d.BarrierWait.N)
		if d.Migrations > 0 {
			fmt.Fprintf(stdout, "migrated   %d chares, %d bytes\n", d.Migrations, d.MigrationBytes)
		}
	}
	if out.Timeline != "" {
		fmt.Fprint(stdout, out.Timeline)
	}
	if *counters && pc != nil {
		fmt.Fprint(stdout, pc.Describe())
	}

	if *traceJSONPath != "" && tr != nil {
		if err := emit(*traceJSONPath, "trace", &stdoutDocs, stdout, tr.WriteChromeTrace); err != nil {
			return fmt.Errorf("write trace JSON: %w", err)
		}
	}
	if *jsonPath != "" {
		doc := runDoc{Dims: d, Periodic: *periodic, Pinned: *pin, Ranks: *ranks, Report: rep}
		if tr != nil {
			s := tr.Summary()
			doc.TraceSummary = &s
		}
		if pc != nil {
			br := pc.Bottleneck()
			doc.Bottleneck = &br
		}
		if err := emit(*jsonPath, "report", &stdoutDocs, stdout, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(doc)
		}); err != nil {
			return fmt.Errorf("write report JSON: %w", err)
		}
	}
	if *countersJSONPath != "" && pc != nil {
		if err := emit(*countersJSONPath, "counters", &stdoutDocs, stdout, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(pc)
		}); err != nil {
			return fmt.Errorf("write counters JSON: %w", err)
		}
	}
	if *promPath != "" && pc != nil {
		if err := writeOut(*promPath, stdout, pc.WritePrometheus); err != nil {
			return fmt.Errorf("write Prometheus text: %w", err)
		}
	}
	if err := flushStdoutDocs(stdoutDocs, stdout); err != nil {
		return err
	}

	if *verify {
		// The reference run is always single-process naive, so with -ranks
		// this cross-checks the distributed layer against a local run.
		cfg.Scheme = nustencil.Naive
		cfg.Ranks = 0
		cfg.ChareFactor = 0
		_, want, err := run(ctx, cfg, nustencil.RunSpec{Timesteps: *steps})
		if err != nil {
			return err
		}
		if math.Abs(probe-want) != 0 {
			return fmt.Errorf("VERIFY FAILED: probe %v vs naive %v", probe, want)
		}
		fmt.Fprintln(stdout, "verify     OK (bit-identical to a single-process naive run)")
	}
	return nil
}

// jsonDoc is one stdout-destined JSON document, deferred so stdout can
// carry a single document (or one envelope) no matter how many outputs
// target it.
type jsonDoc struct {
	key   string
	write func(io.Writer) error
}

// emit streams f to path, or defers it for the stdout envelope when path
// is "-".
func emit(path, key string, docs *[]jsonDoc, stdout io.Writer, f func(io.Writer) error) error {
	if path == "-" {
		*docs = append(*docs, jsonDoc{key: key, write: f})
		return nil
	}
	return writeOut(path, stdout, f)
}

// flushStdoutDocs writes the deferred stdout documents: one document
// streams as-is; several wrap in a single {"report","trace","counters"}
// envelope, so stdout never interleaves two JSON documents.
func flushStdoutDocs(docs []jsonDoc, stdout io.Writer) error {
	switch len(docs) {
	case 0:
		return nil
	case 1:
		return docs[0].write(stdout)
	}
	env := make(map[string]json.RawMessage, len(docs))
	for _, d := range docs {
		var buf bytes.Buffer
		if err := d.write(&buf); err != nil {
			return fmt.Errorf("write %s JSON: %w", d.key, err)
		}
		env[d.key] = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

// writeOut streams f to path, or to stdout when path is "-".
func writeOut(path string, stdout io.Writer, f func(io.Writer) error) error {
	if path == "-" {
		return f(stdout)
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// sinRows is the row fill of the reproducible, spatially varying initial
// condition Σₖ sin(0.17·pt[k] + k) over dims. It reads one table of sines
// per dimension and sums from 0 in dimension order, so every cell has the
// bits of the sum taken cell by cell.
func sinRows(dims []int) func(pt []int, row []float64) {
	sines := make([][]float64, len(dims))
	for k, d := range dims {
		sines[k] = make([]float64, d)
		for c := range sines[k] {
			sines[k][c] = math.Sin(float64(c)*0.17 + float64(k))
		}
	}
	last := len(dims) - 1
	return func(pt []int, row []float64) {
		v := 0.0
		for k, c := range pt[:last] {
			v += sines[k][c]
		}
		s := sines[last][:len(row)]
		for i := range row {
			row[i] = v + s[i]
		}
	}
}

// run builds a solver with the reproducible initial condition (banded
// solvers keep the normalized Jacobi weights they start with) and hands
// the spec to the one Execute entrypoint — no per-flag-combination
// dispatch: the spec already says what to collect.
func run(ctx context.Context, cfg nustencil.Config, spec nustencil.RunSpec) (*nustencil.RunOutput, float64, error) {
	s, err := nustencil.NewSolver(cfg)
	if err != nil {
		return nil, 0, err
	}
	s.SetInitialRows(sinRows(cfg.Dims))
	out, err := s.Execute(ctx, spec)
	if err != nil {
		return nil, 0, err
	}
	probe := make([]int, len(cfg.Dims))
	for k := range probe {
		probe[k] = cfg.Dims[k] / 2
	}
	return out, s.Value(probe), nil
}
