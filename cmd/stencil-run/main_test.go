package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nustencil"
	"nustencil/internal/grid"
)

// TestRunJSONExport drives the tool end to end on a small 7-point/4-worker
// problem and checks both machine-readable outputs: the report JSON and the
// Chrome trace-event JSON.
func TestRunJSONExport(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	tracePath := filepath.Join(dir, "trace.json")
	var out bytes.Buffer
	err := realMain([]string{
		"-scheme", "nuCORALS", "-dims", "34x34x34", "-steps", "8",
		"-workers", "4", "-json", jsonPath, "-trace-json", tracePath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Gupdates/s") {
		t.Errorf("text output missing rate:\n%s", out.String())
	}

	// Report JSON: valid, with the derived rate and per-worker counters.
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Dims   []int `json:"dims"`
		Report struct {
			Scheme    string  `json:"scheme"`
			Workers   int     `json:"workers"`
			Tiles     int     `json:"tiles"`
			Updates   int64   `json:"updates"`
			Gupdates  float64 `json:"gupdates_per_s"`
			Scheduler []struct {
				OwnPops    int64 `json:"own_pops"`
				SharedPops int64 `json:"shared_pops"`
			} `json:"scheduler"`
		} `json:"report"`
		TraceSummary *struct {
			Tiles     int     `json:"tiles"`
			Imbalance float64 `json:"imbalance"`
			PerWorker []struct {
				Utilization float64 `json:"utilization"`
			} `json:"per_worker"`
		} `json:"trace_summary"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("report JSON invalid: %v\n%s", err, raw)
	}
	if doc.Report.Scheme != "nuCORALS" || doc.Report.Workers != 4 {
		t.Errorf("report identity wrong: %+v", doc.Report)
	}
	if doc.Report.Updates <= 0 || doc.Report.Gupdates <= 0 {
		t.Errorf("report has no rate: updates=%d gupdates=%v", doc.Report.Updates, doc.Report.Gupdates)
	}
	if len(doc.Report.Scheduler) != 4 {
		t.Fatalf("scheduler counters = %d entries, want 4", len(doc.Report.Scheduler))
	}
	var pops int64
	for _, sc := range doc.Report.Scheduler {
		pops += sc.OwnPops + sc.SharedPops
	}
	if pops != int64(doc.Report.Tiles) {
		t.Errorf("queue pops %d != tiles %d", pops, doc.Report.Tiles)
	}
	if doc.TraceSummary == nil {
		t.Fatal("trace_summary missing from report JSON")
	}
	if doc.TraceSummary.Tiles != doc.Report.Tiles {
		t.Errorf("trace summary tiles %d != report tiles %d", doc.TraceSummary.Tiles, doc.Report.Tiles)
	}
	if len(doc.TraceSummary.PerWorker) != 4 {
		t.Errorf("trace summary workers = %d, want 4", len(doc.TraceSummary.PerWorker))
	}

	// Chrome trace: valid JSON, one complete event per executed tile,
	// monotone timestamps.
	raw, err = os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("chrome trace invalid JSON: %v", err)
	}
	complete := 0
	lastTs := -1.0
	for _, e := range ct.TraceEvents {
		if e.Ph != "X" {
			continue
		}
		complete++
		if e.Ts < lastTs {
			t.Errorf("timestamps not monotone: %v after %v", e.Ts, lastTs)
		}
		lastTs = e.Ts
		if _, ok := e.Args["tile"]; !ok {
			t.Error("complete event missing tile arg")
		}
	}
	if complete != doc.Report.Tiles {
		t.Errorf("chrome trace has %d complete events, want one per tile (%d)", complete, doc.Report.Tiles)
	}
}

// TestRunJSONStdout checks the "-" path sends JSON to standard output.
func TestRunJSONStdout(t *testing.T) {
	var out bytes.Buffer
	err := realMain([]string{
		"-dims", "20x20x20", "-steps", "4", "-workers", "2", "-json", "-",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	i := strings.Index(s, "{")
	if i < 0 {
		t.Fatalf("no JSON in output:\n%s", s)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(s[i:]), &doc); err != nil {
		t.Fatalf("stdout JSON invalid: %v\n%s", err, s[i:])
	}
	if _, ok := doc["report"]; !ok {
		t.Error("stdout JSON missing report")
	}
}

// TestStdoutEnvelope pins the fix for interleaved stdout documents: with
// -json, -trace-json and -counters-json all targeting stdout, the tool
// emits exactly one JSON document — an envelope keyed by output kind.
func TestStdoutEnvelope(t *testing.T) {
	var out bytes.Buffer
	err := realMain([]string{
		"-dims", "20x20x20", "-steps", "4", "-workers", "2",
		"-json", "-", "-trace-json", "-", "-counters-json", "-",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	i := strings.Index(s, "{")
	if i < 0 {
		t.Fatalf("no JSON in output:\n%s", s)
	}
	// A single Unmarshal must consume the rest of stdout: two concatenated
	// documents would fail here.
	var env struct {
		Report *struct {
			Report struct {
				Updates int64 `json:"updates"`
			} `json:"report"`
		} `json:"report"`
		Trace *struct {
			TraceEvents []struct {
				Ph string `json:"ph"`
			} `json:"traceEvents"`
		} `json:"trace"`
		Counters *struct {
			Attribution struct {
				Binding string `json:"binding"`
			} `json:"attribution"`
		} `json:"counters"`
	}
	if err := json.Unmarshal([]byte(s[i:]), &env); err != nil {
		t.Fatalf("stdout not a single JSON document: %v\n%s", err, s[i:])
	}
	if env.Report == nil || env.Report.Report.Updates <= 0 {
		t.Errorf("envelope report missing or empty: %+v", env.Report)
	}
	if env.Trace == nil || len(env.Trace.TraceEvents) == 0 {
		t.Errorf("envelope trace missing or empty")
	}
	if env.Counters == nil || env.Counters.Attribution.Binding == "" {
		t.Errorf("envelope counters missing or without attribution")
	}
}

// TestStdoutSingleDocStaysRaw: one "-" output alone still streams its
// document unwrapped, preserving the existing contract.
func TestStdoutSingleDocStaysRaw(t *testing.T) {
	var out bytes.Buffer
	err := realMain([]string{
		"-dims", "20x20x20", "-steps", "4", "-workers", "2", "-trace-json", "-",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	s := out.String()
	i := strings.Index(s, "{")
	if i < 0 {
		t.Fatalf("no JSON in output:\n%s", s)
	}
	var doc struct {
		TraceEvents []struct{} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(s[i:]), &doc); err != nil {
		t.Fatalf("stdout JSON invalid: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("raw chrome trace expected at top level, events missing")
	}
}

// TestPromStdoutConflict: Prometheus text cannot join the JSON envelope,
// so sharing stdout with a JSON output is rejected up front.
func TestPromStdoutConflict(t *testing.T) {
	var out bytes.Buffer
	err := realMain([]string{
		"-dims", "20x20x20", "-steps", "2", "-workers", "2",
		"-prom", "-", "-json", "-",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "-prom") {
		t.Fatalf("want a -prom stdout conflict error, got %v", err)
	}
}

// TestCounterOutputs drives the counter surface end to end: attribution
// text on stdout, counters JSON and Prometheus text files, and the
// bottleneck verdict folded into the report JSON.
func TestCounterOutputs(t *testing.T) {
	dir := t.TempDir()
	countersPath := filepath.Join(dir, "counters.json")
	promPath := filepath.Join(dir, "counters.prom")
	jsonPath := filepath.Join(dir, "report.json")
	var out bytes.Buffer
	err := realMain([]string{
		"-dims", "34x34x34", "-steps", "6", "-workers", "4", "-nodes", "2",
		"-machine", "opteron8222", "-counters",
		"-counters-json", countersPath, "-prom", promPath, "-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "bottleneck") {
		t.Errorf("text output missing attribution:\n%s", out.String())
	}

	raw, err := os.ReadFile(countersPath)
	if err != nil {
		t.Fatal(err)
	}
	var cdoc struct {
		Counters struct {
			Nodes   int `json:"nodes"`
			PerNode []struct {
				ControllerBytes int64 `json:"controller_bytes"`
			} `json:"per_node"`
		} `json:"counters"`
		Attribution struct {
			Machine string `json:"machine"`
			Binding string `json:"binding"`
			Bounds  []struct {
				Bound   string  `json:"bound"`
				Seconds float64 `json:"seconds"`
			} `json:"bounds"`
		} `json:"attribution"`
	}
	if err := json.Unmarshal(raw, &cdoc); err != nil {
		t.Fatalf("counters JSON invalid: %v\n%s", err, raw)
	}
	if cdoc.Counters.Nodes != 2 || len(cdoc.Counters.PerNode) != 2 {
		t.Errorf("counters nodes = %d (%d entries), want 2", cdoc.Counters.Nodes, len(cdoc.Counters.PerNode))
	}
	if cdoc.Attribution.Machine != "AMD Opteron 8222" {
		t.Errorf("attribution machine = %q", cdoc.Attribution.Machine)
	}
	if cdoc.Attribution.Binding == "" || len(cdoc.Attribution.Bounds) != 5 {
		t.Errorf("attribution malformed: %+v", cdoc.Attribution)
	}

	prom, err := os.ReadFile(promPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{
		"nustencil_node_controller_bytes",
		"nustencil_tile_latency_seconds_count",
		"nustencil_bound_binding",
	} {
		if !strings.Contains(string(prom), metric) {
			t.Errorf("prometheus file missing %s", metric)
		}
	}

	rawRep, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rdoc struct {
		Bottleneck *struct {
			Binding string `json:"binding"`
		} `json:"bottleneck"`
	}
	if err := json.Unmarshal(rawRep, &rdoc); err != nil {
		t.Fatal(err)
	}
	if rdoc.Bottleneck == nil || rdoc.Bottleneck.Binding != cdoc.Attribution.Binding {
		t.Errorf("report JSON bottleneck = %+v, want binding %q", rdoc.Bottleneck, cdoc.Attribution.Binding)
	}
}

// sinRows fills every cell with the bits of the per-cell sum
// Σₖ sin(0.17·pt[k] + k), on 1D to 4D grids.
func TestSinRowsMatchesPerCellSum(t *testing.T) {
	for _, dims := range [][]int{{9}, {5, 7}, {3, 130}, {4, 5, 6}, {3, 4, 5, 6}} {
		s, err := nustencil.NewSolver(nustencil.Config{Dims: dims})
		if err != nil {
			t.Fatal(err)
		}
		s.SetInitialRows(sinRows(dims))
		g := grid.New(dims)
		pt := make([]int, len(dims))
		for i, got := range s.Export(nil) {
			g.Coords(i, pt)
			want := 0.0
			for k, c := range pt {
				want += math.Sin(float64(c)*0.17 + float64(k))
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dims %v: cell %v holds %v, want %v", dims, pt, got, want)
			}
		}
	}
}
