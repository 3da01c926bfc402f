// Package trace records the execution timeline of a tiled run — which
// worker executed which space-time tile when — and renders it as a text
// timeline with utilization analysis or exports it as Chrome trace-event
// JSON (see WriteChromeTrace). It is the observability layer for
// understanding scheduling behaviour: pipeline fill of the skewed slabs,
// layer barriers of nuCORALS, the serialization NUMA-ignorant schemes
// suffer.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Event is one execution span: a tile on the single-process path, a
// chare step on the distributed path.
type Event struct {
	Worker  int
	TileID  int
	T0, T1  int // the tile's timestep range
	Updates int64
	Start   time.Duration // offsets from the trace start
	End     time.Duration

	// Pid and Tid place the span in the Chrome export: one pid per
	// process (rank), one tid per lane within it — pid 0 and tid == Worker
	// in the single-process layout. Worker stays the accounting key for
	// Summary and Timeline either way.
	Pid, Tid int
	// Name overrides the exported event name; empty renders the default
	// "tile <id> [t<t0>,t<t1>)".
	Name string
}

// shard is one worker's private record lists, padded out to a multiple of
// a cache line so concurrent appends by neighbouring workers do not
// false-share the slice headers.
type shard struct {
	spans    []Event
	counters []counterPoint
	flows    []flowPoint
	instants []instantEvent
	_        [32]byte
}

// Trace collects the records of a run in one shard per worker: spans,
// counter samples, flow endpoints and instants. Worker w appends only to
// shard w, so recording on the execution hot path takes no lock at all.
// Between runs, while no worker records, the caller may append to any
// shard.
type Trace struct {
	origin time.Time
	shards []shard

	// procNames and threadNames are explicit process/thread metadata for
	// multi-process exports; when procNames is non-empty the export skips
	// the default single-process (pid 0, one tid per worker) metadata.
	procNames   map[int]string
	threadNames map[thread]string

	// sorts counts how many times the event list was collected and sorted,
	// so tests can assert that rendering derives it exactly once per call.
	sorts int
}

// thread keys one thread's name.
type thread struct{ pid, tid int }

// counterPoint is one sample of the counter track (pid, name), at an
// offset from the trace origin.
type counterPoint struct {
	pid  int
	name string
	ts   time.Duration
	v    float64
}

// flowPoint is one endpoint of a flow arrow. A start ("ph":"s") and a
// finish ("ph":"f") with the same id and name bind into one arrow in
// Perfetto — the halo-exchange visualization of a distributed trace.
type flowPoint struct {
	start    bool
	id       uint64
	name     string
	pid, tid int
	ts       time.Duration
}

// instantEvent is one point-in-time marker ("ph":"i"): a chare
// migration, an AtSync load-balance barrier.
type instantEvent struct {
	name     string
	pid, tid int
	ts       time.Duration
	args     map[string]any
}

// New returns an empty trace starting now with one shard per worker. The
// shard count is the worker count Summary, Timeline and WriteChromeTrace
// account for.
func New(workers int) *Trace {
	return &Trace{
		origin:      time.Now(),
		shards:      make([]shard, workers),
		procNames:   map[int]string{},
		threadNames: map[thread]string{},
	}
}

// Workers returns the trace's worker (shard) count.
func (tr *Trace) Workers() int { return len(tr.shards) }

// Record appends one execution span to worker w's shard: ev's tile ID,
// timestep range, update count, Pid, Tid and Name, with ev.Worker set to
// w and its Start and End to the absolute times start and end.
func (tr *Trace) Record(w int, ev Event, start, end time.Time) {
	ev.Worker, ev.Start, ev.End = w, start.Sub(tr.origin), end.Sub(tr.origin)
	tr.shards[w].spans = append(tr.shards[w].spans, ev)
}

// AddCounter appends one sample of the counter track (pid, name) to
// worker w's shard; at is an absolute time. Each (pid, name) pair is its
// own track, which the Chrome export renders as a quantitative lane
// above the process's threads: scheduler samples on pid 0, per-rank
// mailbox depth, halo bytes in flight and chares resident.
func (tr *Trace) AddCounter(w, pid int, name string, at time.Time, v float64) {
	tr.shards[w].counters = append(tr.shards[w].counters, counterPoint{pid: pid, name: name, ts: at.Sub(tr.origin), v: v})
}

// FlowStart appends the sending end of a flow arrow ("ph":"s") to worker
// w's shard: id and name must match the corresponding FlowFinish for
// Perfetto to draw the arrow.
func (tr *Trace) FlowStart(w int, id uint64, name string, pid, tid int, at time.Time) {
	tr.shards[w].flows = append(tr.shards[w].flows, flowPoint{start: true, id: id, name: name, pid: pid, tid: tid, ts: at.Sub(tr.origin)})
}

// FlowFinish appends the receiving end of a flow arrow ("ph":"f") to
// worker w's shard; see FlowStart.
func (tr *Trace) FlowFinish(w int, id uint64, name string, pid, tid int, at time.Time) {
	tr.shards[w].flows = append(tr.shards[w].flows, flowPoint{id: id, name: name, pid: pid, tid: tid, ts: at.Sub(tr.origin)})
}

// AddInstant appends a point-in-time marker ("ph":"i") — a chare
// migration, an AtSync barrier — with optional args to worker w's shard.
func (tr *Trace) AddInstant(w int, name string, pid, tid int, at time.Time, args map[string]any) {
	tr.shards[w].instants = append(tr.shards[w].instants, instantEvent{name: name, pid: pid, tid: tid, ts: at.Sub(tr.origin), args: args})
}

// SetProcessName attaches "process_name" metadata to pid. Any explicit
// process name switches the export to multi-process mode: the default
// single-process (pid 0) worker metadata is not emitted, and every
// process and thread carrying events must be named explicitly. Not safe
// for concurrent use with itself, SetThreadName or a render.
func (tr *Trace) SetProcessName(pid int, name string) { tr.procNames[pid] = name }

// SetThreadName attaches "thread_name" metadata to (pid, tid). Not safe
// for concurrent use with itself, SetProcessName or a render.
func (tr *Trace) SetThreadName(pid, tid int, name string) {
	tr.threadNames[thread{pid, tid}] = name
}

// collect merges the shards' spans into one list sorted by start time.
// Every reader goes through collect so the copy+sort happens exactly once
// per rendering call; the derived quantities (span, utilization) are
// computed from the returned slice instead of re-collecting.
func (tr *Trace) collect() []Event {
	n := 0
	for i := range tr.shards {
		n += len(tr.shards[i].spans)
	}
	out := make([]Event, 0, n)
	for i := range tr.shards {
		out = append(out, tr.shards[i].spans...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	tr.sorts++
	return out
}

// spanOf returns the wall time from the first start to the last end of an
// already-sorted event list.
func spanOf(evs []Event) time.Duration {
	if len(evs) == 0 {
		return 0
	}
	var end time.Duration
	for _, e := range evs {
		if e.End > end {
			end = e.End
		}
	}
	return end - evs[0].Start
}

// WorkerStat is one worker's share of a Summary.
type WorkerStat struct {
	Worker  int           `json:"worker"`
	Tiles   int           `json:"tiles"`
	Updates int64         `json:"updates"`
	Busy    time.Duration `json:"busy_ns"`
	Idle    time.Duration `json:"idle_ns"`
	// Utilization is Busy as a fraction of the trace span.
	Utilization float64 `json:"utilization"`
}

// Summary is the computed digest of a trace: the span and per-worker
// busy/idle accounting, computed from a single collection pass.
type Summary struct {
	// Tiles is the number of recorded tile executions.
	Tiles int `json:"tiles"`
	// Span is first-start to last-end wall time.
	Span time.Duration `json:"span_ns"`
	// Updates is the total point updates across all events.
	Updates   int64        `json:"updates"`
	PerWorker []WorkerStat `json:"per_worker"`
	// Imbalance is max/mean of per-worker busy time (1.0 = perfectly
	// balanced, 0 when nothing ran).
	Imbalance float64 `json:"imbalance"`
}

// Summary computes the trace digest, one WorkerStat per shard, with
// exactly one event collection. It must not run while a worker records.
func (tr *Trace) Summary() Summary {
	return summarize(tr.collect(), len(tr.shards))
}

func summarize(evs []Event, workers int) Summary {
	s := Summary{
		Tiles:     len(evs),
		Span:      spanOf(evs),
		PerWorker: make([]WorkerStat, workers),
	}
	for w := range s.PerWorker {
		s.PerWorker[w].Worker = w
	}
	for _, e := range evs {
		s.Updates += e.Updates
		ws := &s.PerWorker[e.Worker]
		ws.Tiles++
		ws.Updates += e.Updates
		ws.Busy += e.End - e.Start
	}
	var sum, maxB time.Duration
	for w := range s.PerWorker {
		ws := &s.PerWorker[w]
		ws.Idle = s.Span - ws.Busy
		if ws.Idle < 0 {
			ws.Idle = 0
		}
		if s.Span > 0 {
			ws.Utilization = float64(ws.Busy) / float64(s.Span)
		}
		sum += ws.Busy
		if ws.Busy > maxB {
			maxB = ws.Busy
		}
	}
	if sum > 0 && workers > 0 {
		s.Imbalance = float64(maxB) / (float64(sum) / float64(workers))
	}
	return s
}

// Timeline renders a text Gantt chart: one row per worker, time bucketed
// into width columns, each cell showing how busy the worker was in that
// bucket (' ' idle, '░' <50%, '▒' <90%, '█' busy). It must not run while
// a worker records.
func (tr *Trace) Timeline(width int) string {
	if width < 1 {
		width = 60
	}
	evs := tr.collect()
	sum := summarize(evs, len(tr.shards))
	span := sum.Span
	var b strings.Builder
	fmt.Fprintf(&b, "timeline (%d tiles over %v)\n", len(evs), span.Round(time.Microsecond))
	if span <= 0 {
		return b.String()
	}
	t0 := evs[0].Start
	buckets := make([][]float64, len(tr.shards))
	for w := range buckets {
		buckets[w] = make([]float64, width)
	}
	// Round the bucket size up so width buckets cover the whole span;
	// truncating would leave the final span-mod-width nanoseconds past the
	// last bucket and render every run's tail as idle.
	bucket := (span + time.Duration(width) - 1) / time.Duration(width)
	if bucket <= 0 {
		bucket = 1
	}
	for _, e := range evs {
		for bi := 0; bi < width; bi++ {
			bStart := t0 + time.Duration(bi)*bucket
			bEnd := bStart + bucket
			ov := minDur(e.End, bEnd) - maxDur(e.Start, bStart)
			if ov > 0 {
				buckets[e.Worker][bi] += float64(ov) / float64(bucket)
			}
		}
	}
	for w, ws := range sum.PerWorker {
		fmt.Fprintf(&b, "w%-3d |", w)
		for _, v := range buckets[w] {
			switch {
			case v <= 0.01:
				b.WriteByte(' ')
			case v < 0.5:
				b.WriteRune('░')
			case v < 0.9:
				b.WriteRune('▒')
			default:
				b.WriteRune('█')
			}
		}
		fmt.Fprintf(&b, "| %3.0f%%\n", ws.Utilization*100)
	}
	return b.String()
}

func minDur(a, b time.Duration) time.Duration {
	if a < b {
		return a
	}
	return b
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
