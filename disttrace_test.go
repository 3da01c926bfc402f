package nustencil

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"nustencil/internal/trace"
)

// tracedDistRun executes one traced 2-rank run and returns its output.
func tracedDistRun(t *testing.T, tune *distTuning, spec RunSpec) *RunOutput {
	t.Helper()
	s, err := NewSolver(Config{
		Dims: []int{14, 13, 12}, Order: 1, Workers: 4, Ranks: 2, ChareFactor: 3,
	})
	if err != nil {
		t.Fatalf("NewSolver: %v", err)
	}
	s.distTune = tune
	s.SetInitial(func(pt []int) float64 {
		return float64(pt[0]*73+pt[1]*37+pt[2])*0.01 - 1
	})
	out, err := s.Execute(context.Background(), spec)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return out
}

// TestDistributedTraceExport pins the tentpole's acceptance bar: a
// 2-rank traced run exports a structurally valid multi-process Chrome
// trace with ≥ 2 distinct pids and at least one halo flow pair whose
// start and finish live on different ranks.
func TestDistributedTraceExport(t *testing.T) {
	out := tracedDistRun(t, nil, RunSpec{Timesteps: 6, Trace: true})
	if out.Trace == nil {
		t.Fatalf("no trace returned")
	}
	var buf bytes.Buffer
	if err := out.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	stats, err := trace.CheckChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("structural check failed: %v", err)
	}
	if stats.Pids < 2 {
		t.Errorf("trace spans %d pids, want ≥ 2 (one per rank)", stats.Pids)
	}
	if stats.Spans == 0 || stats.Flows == 0 || stats.Counters == 0 {
		t.Errorf("trace lacks spans/flows/counters: %+v", stats)
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			ID   string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	startPid := map[string]int{}
	crossRank := false
	counterNames := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "s":
			startPid[e.ID] = e.Pid
		case "f":
			if sp, ok := startPid[e.ID]; ok && sp != e.Pid {
				crossRank = true
			}
		case "C":
			counterNames[e.Name] = true
		}
	}
	if !crossRank {
		t.Errorf("no halo flow pair crosses ranks")
	}
	for _, want := range []string{"mailbox depth", "halo bytes in flight", "chares resident"} {
		if !counterNames[want] {
			t.Errorf("counter track %q missing (have %v)", want, counterNames)
		}
	}
}

// TestDistributedTraceMigration pins migration observability: a forced
// CHANGELOAD run emits a migration instant and AtSync markers, and the
// report's dist stats carry the histograms.
func TestDistributedTraceMigration(t *testing.T) {
	tune := &distTuning{
		LBPeriod: 2,
		LoadFunc: func(chare, step int) int {
			if (step/4)%2 == (chare/3)%2 {
				return 400000
			}
			return 0
		},
	}
	out := tracedDistRun(t, tune, RunSpec{Timesteps: 6, Trace: true})
	if out.Report.Dist.Migrations == 0 {
		t.Fatalf("CHANGELOAD hotspot produced no migrations")
	}
	var buf bytes.Buffer
	if err := out.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if _, err := trace.CheckChrome(buf.Bytes()); err != nil {
		t.Fatalf("structural check failed: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var migrate, atSync bool
	for _, e := range doc.TraceEvents {
		if e.Ph != "i" {
			continue
		}
		if strings.HasPrefix(e.Name, "migrate chare ") {
			migrate = true
		}
		if e.Name == "AtSync" {
			atSync = true
		}
	}
	if !migrate {
		t.Errorf("forced-migration trace has no migration instant")
	}
	if !atSync {
		t.Errorf("trace has no AtSync instants")
	}

	d := out.Report.Dist
	if d == nil {
		t.Fatalf("no dist stats")
	}
	if d.HaloLatency.N == 0 {
		t.Errorf("halo-latency histogram is empty with %d halo msgs", d.HaloMsgs)
	}
	if d.BarrierWait.N == 0 {
		t.Errorf("barrier-wait histogram is empty")
	}
}

// TestDistributedTimeline pins that the text Gantt renderer works on a
// distributed trace: one row per global worker, non-empty bars.
func TestDistributedTimeline(t *testing.T) {
	out := tracedDistRun(t, nil, RunSpec{Timesteps: 4, TimelineWidth: 40})
	if out.Timeline == "" {
		t.Fatalf("no timeline rendered")
	}
	lines := strings.Split(strings.TrimSpace(out.Timeline), "\n")
	if len(lines) != 1+4 { // header + one row per worker
		t.Fatalf("timeline rows = %d, want 5:\n%s", len(lines), out.Timeline)
	}
	sum := out.Trace.Summary()
	if sum.Tiles == 0 || sum.Updates == 0 {
		t.Errorf("trace summary empty: %+v", sum)
	}
}

// TestDistributedHistogramsAlwaysOn pins that the latency and
// barrier-wait histograms are collected even without tracing — they are
// part of Report.Dist, not the trace.
func TestDistributedHistogramsAlwaysOn(t *testing.T) {
	out := tracedDistRun(t, nil, RunSpec{Timesteps: 4})
	if out.Trace != nil {
		t.Fatalf("untraced run returned a trace")
	}
	d := out.Report.Dist
	if d == nil {
		t.Fatalf("no dist stats on untraced run")
	}
	if d.HaloLatency.N == 0 || d.BarrierWait.N == 0 {
		t.Errorf("histograms empty on untraced run: halo N=%d barrier N=%d",
			d.HaloLatency.N, d.BarrierWait.N)
	}
	if d.HaloMsgs == 0 || d.HaloBytes == 0 {
		t.Errorf("no halo traffic recorded: %+v", d)
	}
	if d.NetworkBytes() != d.HaloBytes+d.MigrationBytes {
		t.Errorf("NetworkBytes() = %d", d.NetworkBytes())
	}
}

// TestReportJSONDist pins the wire form: Report.Dist round-trips through
// the JSON codec.
func TestReportJSONDist(t *testing.T) {
	out := tracedDistRun(t, nil, RunSpec{Timesteps: 4})
	data, err := json.Marshal(out.Report)
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	if !strings.Contains(string(data), `"dist"`) {
		t.Fatalf("report JSON lacks dist block: %s", data)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if back.Dist == nil || back.Dist.Ranks != out.Report.Dist.Ranks ||
		back.Dist.HaloBytes != out.Report.Dist.HaloBytes ||
		back.Dist.HaloLatency.N != out.Report.Dist.HaloLatency.N {
		t.Errorf("dist stats did not round-trip: %+v vs %+v", back.Dist, out.Report.Dist)
	}
	if back.Dist.Migrations != out.Report.Dist.Migrations {
		t.Errorf("migrations did not round-trip")
	}
}
