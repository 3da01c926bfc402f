package nustencil

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"nustencil/internal/vec"
)

// TestRunStepsTraceExport exercises the public observability surface: a
// traced run must yield a Chrome trace with one complete event per executed
// tile, a summary consistent with the report, and scheduler counters whose
// queue pops account for every tile.
func TestRunStepsTraceExport(t *testing.T) {
	s, err := NewSolver(Config{
		Dims: []int{34, 34, 34}, Timesteps: 6, Scheme: NuCORALS, Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Execute(nil, RunSpec{Timesteps: 6, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, tr := out.Report, out.Trace
	if tr == nil {
		t.Fatal("traced run returned nil trace")
	}

	sum := tr.Summary()
	if sum.Tiles != rep.Tiles {
		t.Errorf("summary tiles %d != report tiles %d", sum.Tiles, rep.Tiles)
	}
	if sum.Updates != rep.Updates {
		t.Errorf("summary updates %d != report updates %d", sum.Updates, rep.Updates)
	}
	if len(sum.PerWorker) != 4 {
		t.Errorf("summary workers = %d, want 4", len(sum.PerWorker))
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace invalid JSON: %v", err)
	}
	complete := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
	}
	if complete != rep.Tiles {
		t.Errorf("chrome trace has %d complete events, want %d", complete, rep.Tiles)
	}

	if len(rep.Sched) != 4 {
		t.Fatalf("Sched = %d entries, want 4", len(rep.Sched))
	}
	var pops int64
	for _, sc := range rep.Sched {
		pops += sc.OwnPops + sc.SharedPops
	}
	if pops != int64(rep.Tiles) {
		t.Errorf("queue pops %d != tiles executed %d", pops, rep.Tiles)
	}

	// The text timeline still renders from the same trace.
	if tl := tr.Timeline(24); !strings.Contains(tl, "timeline") {
		t.Errorf("timeline render wrong: %q", tl)
	}
}

// TestReportJSONRoundTrip checks the stable report format: derived rates
// present on the wire, base fields preserved through a round trip.
func TestReportJSONRoundTrip(t *testing.T) {
	rep := Report{
		Scheme: NuCORALS, Workers: 2, Timesteps: 10, Updates: 2e9, Kernel: "avx2",
		Seconds: 1, Tiles: 42, FlopsPerUpdate: 13, Imbalance: 1.25, Utilization: 0.75,
		UpdatesPerWorker: []int64{1e9, 1e9},
		Sched: []SchedulerCounters{
			{Parks: 3, Unparks: 5, OwnPops: 20, SharedPops: 1, EmptyPolls: 7},
			{Parks: 2, Unparks: 4, OwnPops: 21, SharedPops: 0, EmptyPolls: 6},
		},
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"gupdates_per_s":2`, `"gflops":26`, `"own_pops":20`, `"scheme":"nuCORALS"`, `"utilization":0.75`, `"kernel":"avx2"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("report JSON missing %s: %s", key, data)
		}
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Updates != rep.Updates || back.Tiles != rep.Tiles || back.Gupdates() != rep.Gupdates() ||
		back.Utilization != rep.Utilization || back.Kernel != rep.Kernel {
		t.Errorf("round trip changed the report: %+v", back)
	}
	if len(back.Sched) != 2 || back.Sched[0] != rep.Sched[0] {
		t.Errorf("scheduler counters lost: %+v", back.Sched)
	}
}

// Report.Utilization, on the single-process and the distributed path, is a
// share of the run's worker time in (0, 1] and survives the JSON wire form.
func TestReportUtilization(t *testing.T) {
	for _, cfg := range []Config{
		{Dims: []int{26, 26, 26}, Scheme: NuCATS, Workers: 2},
		{Dims: []int{26, 26, 26}, Scheme: Naive, Workers: 2, Ranks: 2, ChareFactor: 2},
	} {
		s, err := NewSolver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Execute(nil, RunSpec{Timesteps: 6})
		if err != nil {
			t.Fatal(err)
		}
		rep := out.Report
		if rep.Utilization <= 0 || rep.Utilization > 1 {
			t.Errorf("ranks=%d: utilization %v outside (0, 1]", cfg.Ranks, rep.Utilization)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		var back Report
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back.Utilization != rep.Utilization {
			t.Errorf("ranks=%d: utilization %v came back as %v", cfg.Ranks, rep.Utilization, back.Utilization)
		}
	}
}

// Report.Kernel names the row kernel that ran, on the single-process and
// the distributed path: the vector kernel where the host has it, for
// constant and banded stencils alike.
func TestReportKernel(t *testing.T) {
	want := vec.Kernel()
	for _, banded := range []bool{false, true} {
		for _, ranks := range []int{1, 2} {
			s, err := NewSolver(Config{Dims: []int{14, 14, 14}, Workers: 2, Ranks: ranks, Banded: banded})
			if err != nil {
				t.Fatal(err)
			}
			out, err := s.Execute(nil, RunSpec{Timesteps: 2})
			if err != nil {
				t.Fatal(err)
			}
			if got := out.Report.Kernel; got != want {
				t.Errorf("banded=%v ranks=%d: kernel %q, want %q", banded, ranks, got, want)
			}
		}
	}
	// Beyond grid.MaxRowDims a Dirichlet grid still runs its rows on the
	// row kernels, while every cell of a periodic one takes the Go
	// wrapped loop.
	for _, periodic := range []bool{false, true} {
		s, err := NewSolver(Config{Dims: []int{3, 3, 3, 3, 3, 3, 3, 3, 5}, Workers: 2, Scheme: Naive, Periodic: periodic})
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Execute(nil, RunSpec{Timesteps: 2})
		if err != nil {
			t.Fatal(err)
		}
		w := want
		if periodic {
			w = "go"
		}
		if got := out.Report.Kernel; got != w {
			t.Errorf("9D periodic=%v: kernel %q, want %q", periodic, got, w)
		}
	}
}

// TestRenderFigureJSON smoke-checks the figure JSON entry point.
func TestRenderFigureJSON(t *testing.T) {
	out, err := RenderFigureJSON("fig04")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("figure JSON invalid: %v", err)
	}
	if doc["id"] != "fig04" {
		t.Errorf("id = %v", doc["id"])
	}
	if _, err := RenderFigureJSON("fig99"); err == nil {
		t.Error("unknown figure must error")
	}
	out3, err := RenderFigureJSON("fig03")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out3, "sys_gbs_per_core") {
		t.Errorf("fig03 JSON missing bandwidth series: %s", out3)
	}
}

// countedSolver builds a small NUMA-modeled solver for counter tests.
func countedSolver(t *testing.T) *Solver {
	t.Helper()
	s, err := NewSolver(Config{
		Dims: []int{34, 34, 34}, Timesteps: 6, Scheme: NuCORALS,
		Workers: 4, NUMANodes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunStepsCounted exercises the counted-run surface: totals consistent
// with the report, conservation between the requester and server traffic
// views, a well-formed bottleneck report, and the Prometheus and JSON
// exports. The subtest is named "dynamic", the scheduler's name, so
// recorded test IDs stay valid.
func TestRunStepsCounted(t *testing.T) {
	t.Run("dynamic", func(t *testing.T) {
		s := countedSolver(t)
		out, err := s.Execute(nil, RunSpec{Timesteps: 6, Counters: true, SamplePeriod: 100 * time.Microsecond})
		if err != nil {
			t.Fatal(err)
		}
		rep, pc := out.Report, out.Counters
		if pc == nil {
			t.Fatal("counted run returned nil counters")
		}
		if pc.Updates() != rep.Updates {
			t.Errorf("counter updates %d != report updates %d", pc.Updates(), rep.Updates)
		}
		if got, want := pc.Flops(), rep.Updates*int64(rep.FlopsPerUpdate); got != want {
			t.Errorf("flops = %d, want %d", got, want)
		}
		if pc.MainBytes() <= 0 || pc.LLCBytes() <= 0 {
			t.Errorf("degenerate traffic: main %d llc %d", pc.MainBytes(), pc.LLCBytes())
		}
		// Conservation: the requester view (local+remote) and the server
		// view (controller bytes) account the same traffic, up to one
		// rounding per worker-shard counter.
		reqView := pc.LocalBytes() + pc.RemoteBytes()
		slack := int64(rep.Workers * 2)
		if diff := reqView - pc.MainBytes(); diff > slack || diff < -slack {
			t.Errorf("local+remote %d != controller sum %d", reqView, pc.MainBytes())
		}

		br := pc.Bottleneck()
		known := map[string]bool{
			"PeakDP": true, "LL1Band0C": true, "SysBandIC": true,
			"SysBand0C": true, "Controller": true, "Interconnect": true,
		}
		if !known[br.Binding] {
			t.Errorf("unknown binding bound %q", br.Binding)
		}
		if len(br.Bounds) != 5 {
			t.Errorf("bounds = %d entries, want 5", len(br.Bounds))
		}
		if br.ModelSeconds <= 0 || br.MeasuredSeconds != rep.Seconds {
			t.Errorf("seconds: model %g measured %g (report %g)",
				br.ModelSeconds, br.MeasuredSeconds, rep.Seconds)
		}
		if br.Machine == "" || br.Cores < 1 {
			t.Errorf("attribution identity missing: %+v", br)
		}

		if pc.MeanTileLatency() <= 0 {
			t.Error("mean tile latency not positive")
		}
		if pc.LatencyQuantile(0.99) < pc.LatencyQuantile(0.5) {
			t.Error("p99 latency below median")
		}
		if !strings.Contains(pc.Describe(), br.Binding) {
			t.Errorf("Describe() missing binding bound:\n%s", pc.Describe())
		}

		data, err := json.Marshal(pc)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Counters struct {
				PerNode []struct {
					ControllerBytes int64 `json:"controller_bytes"`
				} `json:"per_node"`
			} `json:"counters"`
			Attribution struct {
				Binding string `json:"binding"`
			} `json:"attribution"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("counters JSON invalid: %v", err)
		}
		if len(doc.Counters.PerNode) != 2 {
			t.Errorf("JSON per_node = %d entries, want 2", len(doc.Counters.PerNode))
		}
		if doc.Attribution.Binding != br.Binding {
			t.Errorf("JSON binding %q != report %q", doc.Attribution.Binding, br.Binding)
		}

		var prom bytes.Buffer
		if err := pc.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		for _, metric := range []string{
			"nustencil_node_controller_bytes{node=\"1\"}",
			"nustencil_tile_latency_seconds_bucket{le=\"+Inf\"}",
			"nustencil_bound_seconds",
			"nustencil_bound_binding",
		} {
			if !strings.Contains(prom.String(), metric) {
				t.Errorf("prometheus output missing %s", metric)
			}
		}
	})
}

// TestRunStepsTraceCountedChromeCounters checks the trace integration: every
// scheduler sample becomes two "ph":"C" counter events in the Chrome export.
func TestRunStepsTraceCountedChromeCounters(t *testing.T) {
	s := countedSolver(t)
	out, err := s.Execute(nil, RunSpec{Timesteps: 6, Trace: true, Counters: true, SamplePeriod: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	rep, tr, pc := out.Report, out.Trace, out.Counters
	if tr == nil || pc == nil {
		t.Fatalf("trace %v counters %v", tr, pc)
	}
	if sum := tr.Summary(); sum.Tiles != rep.Tiles {
		t.Errorf("summary tiles %d != report tiles %d", sum.Tiles, rep.Tiles)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace invalid JSON: %v", err)
	}
	counterEvents := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "C" {
			if e.Name != "ready tiles" && e.Name != "idle workers" {
				t.Errorf("unexpected counter track %q", e.Name)
			}
			counterEvents++
		}
	}
	var samples int
	if data, err := json.Marshal(pc); err == nil {
		var d struct {
			Counters struct {
				Samples []struct{} `json:"samples"`
			} `json:"counters"`
		}
		if err := json.Unmarshal(data, &d); err != nil {
			t.Fatal(err)
		}
		samples = len(d.Counters.Samples)
	}
	if counterEvents != 2*samples {
		t.Errorf("chrome trace has %d counter events for %d samples, want %d",
			counterEvents, samples, 2*samples)
	}
}

// TestRunStepsCountedUnknownMachine pins the error path.
func TestRunStepsCountedUnknownMachine(t *testing.T) {
	s := countedSolver(t)
	if _, err := s.Execute(nil, RunSpec{Timesteps: 2, Counters: true, Machine: "bogus"}); err == nil {
		t.Error("unknown machine must error")
	}
	// The failed validation must not poison the solver.
	if err := s.Err(); err != nil {
		t.Errorf("solver poisoned by rejected options: %v", err)
	}
	if _, err := s.Execute(nil, RunSpec{Timesteps: 2, Counters: true, Machine: Opteron8222}); err != nil {
		t.Errorf("opteron counted run failed: %v", err)
	}
}

// TestRenderFigureCounters smoke-checks the figure counter-attribution
// renderers.
func TestRenderFigureCounters(t *testing.T) {
	out, err := RenderFigureCounters("fig04")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "counter attribution") || !strings.Contains(out, "cores") {
		t.Errorf("counter table malformed:\n%s", out)
	}
	js, err := RenderFigureCountersJSON("fig04")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ID    string `json:"id"`
		Cores []int  `json:"cores"`
		Lines []struct {
			Scheme       string `json:"scheme"`
			Attributions []struct {
				Binding string  `json:"binding"`
				Margin  float64 `json:"margin"`
			} `json:"attributions"`
		} `json:"lines"`
	}
	if err := json.Unmarshal([]byte(js), &doc); err != nil {
		t.Fatalf("counter JSON invalid: %v", err)
	}
	if doc.ID != "fig04" || len(doc.Lines) == 0 {
		t.Fatalf("counter doc malformed: id %q, %d lines", doc.ID, len(doc.Lines))
	}
	for _, ln := range doc.Lines {
		if len(ln.Attributions) != len(doc.Cores) {
			t.Errorf("%s: %d attributions for %d core counts",
				ln.Scheme, len(ln.Attributions), len(doc.Cores))
		}
		for _, a := range ln.Attributions {
			if a.Binding == "" {
				t.Errorf("%s: empty binding", ln.Scheme)
			}
		}
	}
	if _, err := RenderFigureCounters("fig99"); err == nil {
		t.Error("unknown figure must error")
	}
	if _, err := RenderFigureCountersJSON("fig99"); err == nil {
		t.Error("unknown figure must error")
	}
}
