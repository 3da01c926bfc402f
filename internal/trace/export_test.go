package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// chromeDoc mirrors the trace-event JSON for decoding in tests.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeTrace(t *testing.T) {
	t0 := time.Now()
	tr := mk(2, t0)
	rec(tr, 1, 7, 2, 4, 30, t0.Add(10*time.Millisecond), t0.Add(25*time.Millisecond))
	rec(tr, 0, 3, 0, 2, 10, t0, t0.Add(5*time.Millisecond))
	rec(tr, 0, 5, 2, 4, 20, t0.Add(5*time.Millisecond), t0.Add(12*time.Millisecond))

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}

	var procMeta, threadMeta, complete int
	lastTs := -1.0
	tiles := map[float64]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			switch e.Name {
			case "process_name":
				procMeta++
			case "thread_name":
				threadMeta++
			default:
				t.Errorf("metadata event name = %q", e.Name)
			}
		case "X":
			complete++
			if e.Ts < lastTs {
				t.Errorf("timestamps not monotone: %v after %v", e.Ts, lastTs)
			}
			lastTs = e.Ts
			if e.Dur <= 0 {
				t.Errorf("complete event %q has dur %v", e.Name, e.Dur)
			}
			for _, k := range []string{"tile", "t0", "t1", "updates", "worker"} {
				if _, ok := e.Args[k]; !ok {
					t.Errorf("complete event %q missing arg %q", e.Name, k)
				}
			}
			tiles[e.Args["tile"].(float64)] = true
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if procMeta != 1 {
		t.Errorf("process_name events = %d, want 1", procMeta)
	}
	if threadMeta != 2 {
		t.Errorf("thread_name events = %d, want 2 (one per worker)", threadMeta)
	}
	if complete != 3 {
		t.Errorf("complete events = %d, want one per recorded tile (3)", complete)
	}
	for _, id := range []float64{3, 5, 7} {
		if !tiles[id] {
			t.Errorf("tile %v missing from trace", id)
		}
	}
	if _, err := CheckChrome(buf.Bytes()); err != nil {
		t.Errorf("structural check failed: %v", err)
	}
}

func TestWriteChromeTraceEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := New(1).WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 { // just the process_name + thread_name metadata
		t.Errorf("events = %d, want 2", len(doc.TraceEvents))
	}
}

// A multi-rank export: explicit process/thread metadata, spans placed on
// explicit pids and tids, a cross-pid flow pair, instants, and per-pid
// counter tracks.
func TestWriteChromeTraceMultiRank(t *testing.T) {
	t0 := time.Now()
	tr := mk(2, t0)
	tr.SetProcessName(1, "rank 0")
	tr.SetProcessName(2, "rank 1")
	tr.SetThreadName(1, 3, "chare 3")
	tr.SetThreadName(2, 5, "chare 5")
	tr.Record(0, Event{Pid: 1, Tid: 3, Name: "chare 3 step 0", TileID: 3, T0: 0, T1: 1, Updates: 100}, t0, t0.Add(2*time.Millisecond))
	tr.Record(1, Event{Pid: 2, Tid: 5, Name: "chare 5 step 0", TileID: 5, T0: 0, T1: 1, Updates: 100}, t0.Add(time.Millisecond), t0.Add(3*time.Millisecond))
	tr.FlowStart(0, 42, "halo", 1, 3, t0.Add(2*time.Millisecond))
	tr.FlowFinish(1, 42, "halo", 2, 5, t0.Add(4*time.Millisecond))
	tr.AddInstant(0, "migrate chare 3", 1, 3, t0.Add(5*time.Millisecond), map[string]any{"to": 1})
	tr.AddCounter(0, 1, "mailbox depth", t0.Add(time.Millisecond), 2)
	tr.AddCounter(1, 2, "mailbox depth", t0.Add(time.Millisecond), 1)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	stats, err := CheckChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("structural check failed: %v\n%s", err, buf.String())
	}
	if stats.Pids != 2 {
		t.Errorf("pids = %d, want 2", stats.Pids)
	}
	if stats.Spans != 2 || stats.Flows != 2 || stats.Instants != 1 || stats.Counters != 2 {
		t.Errorf("stats = %+v", stats)
	}

	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var sPid, fPid = -1, -1
	names := map[string]bool{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "s":
			sPid = e.Pid
		case "f":
			fPid = e.Pid
		case "X":
			names[e.Name] = true
		}
	}
	if sPid != 1 || fPid != 2 {
		t.Errorf("flow pids: start on %d, finish on %d; want 1 and 2", sPid, fPid)
	}
	if !names["chare 3 step 0"] || !names["chare 5 step 0"] {
		t.Errorf("span name overrides missing: %v", names)
	}
}

func TestSummary(t *testing.T) {
	t0 := time.Now()
	tr := mk(2, t0)
	// Worker 0 busy the whole 100ms span; worker 1 busy the middle 50ms.
	rec(tr, 0, 0, 0, 1, 40, t0, t0.Add(100*time.Millisecond))
	rec(tr, 1, 1, 0, 1, 10, t0.Add(25*time.Millisecond), t0.Add(75*time.Millisecond))
	s := tr.Summary()
	if s.Tiles != 2 || s.Updates != 50 {
		t.Fatalf("tiles=%d updates=%d", s.Tiles, s.Updates)
	}
	if s.Span != 100*time.Millisecond {
		t.Errorf("span = %v", s.Span)
	}
	w0, w1 := s.PerWorker[0], s.PerWorker[1]
	if w0.Busy != 100*time.Millisecond || w0.Idle != 0 || w0.Tiles != 1 || w0.Updates != 40 {
		t.Errorf("worker 0 stat: %+v", w0)
	}
	if w1.Busy != 50*time.Millisecond || w1.Idle != 50*time.Millisecond {
		t.Errorf("worker 1 stat: %+v", w1)
	}
	if w1.Utilization < 0.49 || w1.Utilization > 0.51 {
		t.Errorf("worker 1 utilization = %v", w1.Utilization)
	}
	// max busy 100ms, mean 75ms.
	if s.Imbalance < 1.32 || s.Imbalance > 1.34 {
		t.Errorf("imbalance = %v", s.Imbalance)
	}
	if tr.sorts != 1 {
		t.Errorf("Summary sorted the event list %d times, want 1", tr.sorts)
	}
}

func TestSummaryEmpty(t *testing.T) {
	s := New(3).Summary()
	if s.Tiles != 0 || s.Span != 0 || s.Imbalance != 0 || len(s.PerWorker) != 3 {
		t.Errorf("empty summary: %+v", s)
	}
}

// TestTimelineSingleSort pins the fix for the repeated O(n log n)
// derivations: one Timeline render must collect and sort the event list
// exactly once (it previously did so four times, via Events, Span and
// Utilization each re-deriving it).
func TestTimelineSingleSort(t *testing.T) {
	t0 := time.Now()
	tr := mk(2, t0)
	rec(tr, 0, 0, 0, 1, 1, t0, t0.Add(10*time.Millisecond))
	rec(tr, 1, 1, 0, 1, 1, t0.Add(5*time.Millisecond), t0.Add(10*time.Millisecond))
	tr.Timeline(10)
	if tr.sorts != 1 {
		t.Errorf("Timeline sorted the event list %d times, want exactly 1", tr.sorts)
	}
}

// TestTimelineRendersTail pins the tail-bucket fix: with span not evenly
// divisible by width, the truncating bucket size span/width left the last
// span-mod-width nanoseconds beyond the final bucket, so a tile that
// executed entirely in that window rendered as idle.
func TestTimelineRendersTail(t *testing.T) {
	t0 := time.Now()
	tr := mk(2, t0)
	// Span is 100ns over 3 columns: truncated bucket = 33ns, covering only
	// [0,99). The last event [99,100) fell entirely in the lost tail.
	rec(tr, 0, 0, 0, 1, 1, t0, t0.Add(10*time.Nanosecond))
	rec(tr, 1, 1, 0, 1, 1, t0.Add(99*time.Nanosecond), t0.Add(100*time.Nanosecond))
	out := tr.Timeline(3)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline lines = %d:\n%s", len(lines), out)
	}
	w1 := lines[2]
	bar := w1[strings.IndexByte(w1, '|')+1 : strings.LastIndexByte(w1, '|')]
	if strings.TrimSpace(bar) == "" {
		t.Errorf("tail event rendered as idle: %q", w1)
	}
}

// Counter tracks added with AddCounter come out as "ph":"C" events with the
// series value in args and microsecond timestamps relative to the origin.
func TestWriteChromeTraceCounters(t *testing.T) {
	t0 := time.Now()
	tr := mk(1, t0)
	rec(tr, 0, 1, 0, 1, 5, t0, t0.Add(time.Millisecond))
	tr.AddCounter(0, 0, "ready tiles", t0.Add(100*time.Microsecond), 7)
	tr.AddCounter(0, 0, "ready tiles", t0.Add(300*time.Microsecond), 3)
	tr.AddCounter(0, 0, "idle workers", t0.Add(100*time.Microsecond), 0)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	got := map[string][]float64{} // name -> values in emission order
	ts := map[string][]float64{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "C" {
			continue
		}
		v, ok := e.Args["value"].(float64)
		if !ok {
			t.Fatalf("counter %q args %v lack a numeric value", e.Name, e.Args)
		}
		got[e.Name] = append(got[e.Name], v)
		ts[e.Name] = append(ts[e.Name], e.Ts)
	}
	if want := []float64{7, 3}; !floatsEqual(got["ready tiles"], want) {
		t.Errorf("ready tiles values = %v, want %v", got["ready tiles"], want)
	}
	if want := []float64{0}; !floatsEqual(got["idle workers"], want) {
		t.Errorf("idle workers values = %v, want %v", got["idle workers"], want)
	}
	if want := []float64{100, 300}; !floatsEqual(ts["ready tiles"], want) {
		t.Errorf("ready tiles timestamps = %v µs, want %v", ts["ready tiles"], want)
	}
	if _, err := CheckChrome(buf.Bytes()); err != nil {
		t.Errorf("structural check failed: %v", err)
	}
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
