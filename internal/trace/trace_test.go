package trace

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func mk(workers int, t0 time.Time) *Trace {
	tr := New(workers)
	tr.origin = t0
	return tr
}

// rec records a single-process span: tile id, steps [t0, t1), on worker w.
func rec(tr *Trace, w, id, t0, t1 int, updates int64, start, end time.Time) {
	tr.Record(w, Event{TileID: id, T0: t0, T1: t1, Updates: updates, Tid: w}, start, end)
}

func TestEventsSortedAndSpan(t *testing.T) {
	t0 := time.Now()
	tr := mk(2, t0)
	rec(tr, 1, 2, 0, 1, 10, t0.Add(30*time.Millisecond), t0.Add(40*time.Millisecond))
	rec(tr, 0, 1, 0, 1, 10, t0.Add(10*time.Millisecond), t0.Add(20*time.Millisecond))
	evs := tr.collect()
	if len(evs) != 2 || evs[0].TileID != 1 {
		t.Fatalf("events not sorted: %+v", evs)
	}
	if got := tr.Summary().Span; got != 30*time.Millisecond {
		t.Errorf("span = %v, want 30ms", got)
	}
}

func TestUtilization(t *testing.T) {
	t0 := time.Now()
	tr := mk(2, t0)
	// Worker 0 busy the whole 100ms span; worker 1 busy half.
	rec(tr, 0, 0, 0, 1, 1, t0, t0.Add(100*time.Millisecond))
	rec(tr, 1, 1, 0, 1, 1, t0, t0.Add(50*time.Millisecond))
	u := tr.Summary().PerWorker
	if u[0].Utilization < 0.99 || u[0].Utilization > 1.01 {
		t.Errorf("worker 0 utilization = %v", u[0].Utilization)
	}
	if u[1].Utilization < 0.49 || u[1].Utilization > 0.51 {
		t.Errorf("worker 1 utilization = %v", u[1].Utilization)
	}
}

func TestTimelineRendering(t *testing.T) {
	t0 := time.Now()
	tr := mk(2, t0)
	rec(tr, 0, 0, 0, 1, 1, t0, t0.Add(80*time.Millisecond))
	rec(tr, 1, 1, 0, 1, 1, t0.Add(40*time.Millisecond), t0.Add(80*time.Millisecond))
	out := tr.Timeline(20)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "w0") || !strings.Contains(lines[1], "█") {
		t.Errorf("worker 0 row wrong: %q", lines[1])
	}
	// Worker 1's row starts idle.
	w1 := lines[2]
	bar := w1[strings.IndexByte(w1, '|')+1:]
	if !strings.HasPrefix(bar, " ") {
		t.Errorf("worker 1 should start idle: %q", w1)
	}
}

func TestEmptyTraceSafe(t *testing.T) {
	tr := New(3)
	s := tr.Summary()
	if s.Span != 0 {
		t.Error("empty span")
	}
	if out := tr.Timeline(10); !strings.Contains(out, "0 tiles") {
		t.Errorf("empty timeline: %q", out)
	}
	for _, ws := range s.PerWorker {
		if ws.Utilization != 0 {
			t.Error("empty utilization should be zero")
		}
	}
}

// Every worker appends every record kind to its own shard at once; the
// export holds them all, and under -race no append races another.
func TestConcurrentRecording(t *testing.T) {
	const workers, n = 8, 100
	tr := New(workers)
	tr.SetProcessName(0, "rank 0")
	for w := 0; w < workers; w++ {
		tr.SetThreadName(0, w, "worker")
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				end := start.Add(time.Millisecond)
				rec(tr, w, i, 0, 1, 1, start, end)
				tr.AddCounter(w, 0, "depth", end, float64(i))
				id := uint64(w*n + i)
				tr.FlowStart(w, id, "halo", 0, w, start)
				tr.FlowFinish(w, id, "halo", 0, w, end)
				tr.AddInstant(w, "mark", 0, w, end, nil)
			}
		}(w)
	}
	wg.Wait()
	if got := tr.Summary().Tiles; got != workers*n {
		t.Errorf("spans = %d, want %d", got, workers*n)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := CheckChrome(buf.Bytes())
	if err != nil {
		t.Fatalf("structural check failed: %v", err)
	}
	if st.Spans != workers*n || st.Counters != workers*n || st.Flows != 2*workers*n || st.Instants != workers*n {
		t.Errorf("exported %+v, want %d of each kind (flows counting both ends)", st, workers*n)
	}
}
