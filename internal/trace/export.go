package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one entry of the Chrome trace-event format's traceEvents
// array (the JSON format chrome://tracing and Perfetto load). Timestamps
// and durations are in microseconds; fractional values are allowed, which
// keeps sub-microsecond tiles visible.
type chromeEvent struct {
	Name string   `json:"name"`
	Ph   string   `json:"ph"`
	Ts   float64  `json:"ts"`
	Dur  *float64 `json:"dur,omitempty"`
	Pid  int      `json:"pid"`
	Tid  int      `json:"tid"`
	// Cat and ID bind flow starts to flow finishes; Bp ("e") attaches a
	// flow finish to its enclosing slice; S is an instant event's scope.
	Cat  string         `json:"cat,omitempty"`
	ID   string         `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// flowCat is the category binding flow starts to finishes (Perfetto
// matches arrows on cat+id+name).
const flowCat = "flow"

// WriteChromeTrace writes the trace in Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing. Metadata ("ph":"M") comes first: with
// no explicit process names, the default single-process layout — pid 0
// named "nustencil", one tid per worker — is emitted; explicit
// SetProcessName/SetThreadName metadata replaces it (the multi-rank
// layout: one pid per rank, one tid per chare). Then every shard's
// counter ("ph":"C") samples, flow endpoints ("ph":"s"/"f") connecting
// halo sends to their receives and instant ("ph":"i") markers, and
// finally one complete ("ph":"X") event per recorded span carrying the
// tile ID, timestep range and update count as args, sorted by start
// time. It must not run while a worker records.
func (tr *Trace) WriteChromeTrace(w io.Writer) error {
	evs := tr.collect()
	doc := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(evs)+len(tr.shards)+len(tr.procNames)+len(tr.threadNames)+1),
		DisplayTimeUnit: "ms",
	}
	if len(tr.procNames) == 0 {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name",
			Ph:   "M",
			Pid:  0,
			Args: map[string]any{"name": "nustencil"},
		})
		for wk := range tr.shards {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name",
				Ph:   "M",
				Pid:  0,
				Tid:  wk,
				Args: map[string]any{"name": fmt.Sprintf("worker %d", wk)},
			})
		}
	} else {
		pids := make([]int, 0, len(tr.procNames))
		for pid := range tr.procNames {
			pids = append(pids, pid)
		}
		sort.Ints(pids)
		for _, pid := range pids {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "process_name",
				Ph:   "M",
				Pid:  pid,
				Args: map[string]any{"name": tr.procNames[pid]},
			})
		}
		threads := make([]thread, 0, len(tr.threadNames))
		for t := range tr.threadNames {
			threads = append(threads, t)
		}
		sort.Slice(threads, func(i, j int) bool {
			if threads[i].pid != threads[j].pid {
				return threads[i].pid < threads[j].pid
			}
			return threads[i].tid < threads[j].tid
		})
		for _, t := range threads {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: "thread_name",
				Ph:   "M",
				Pid:  t.pid,
				Tid:  t.tid,
				Args: map[string]any{"name": tr.threadNames[t]},
			})
		}
	}
	for i := range tr.shards {
		sh := &tr.shards[i]
		for _, p := range sh.counters {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: p.name,
				Ph:   "C",
				Ts:   float64(p.ts) / 1e3,
				Pid:  p.pid,
				Args: map[string]any{"value": p.v},
			})
		}
		for _, f := range sh.flows {
			ev := chromeEvent{
				Name: f.name,
				Ph:   "f",
				Ts:   float64(f.ts) / 1e3,
				Pid:  f.pid,
				Tid:  f.tid,
				Cat:  flowCat,
				ID:   fmt.Sprintf("0x%x", f.id),
				Bp:   "e",
			}
			if f.start {
				ev.Ph, ev.Bp = "s", ""
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
		for _, in := range sh.instants {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: in.name,
				Ph:   "i",
				Ts:   float64(in.ts) / 1e3,
				Pid:  in.pid,
				Tid:  in.tid,
				S:    "t",
				Args: in.args,
			})
		}
	}
	for _, e := range evs {
		dur := float64(e.End-e.Start) / 1e3
		if dur < 0 {
			dur = 0
		}
		d := dur
		name := e.Name
		if name == "" {
			name = fmt.Sprintf("tile %d [t%d,t%d)", e.TileID, e.T0, e.T1)
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: name,
			Ph:   "X",
			Ts:   float64(e.Start) / 1e3,
			Dur:  &d,
			Pid:  e.Pid,
			Tid:  e.Tid,
			Args: map[string]any{
				"tile":    e.TileID,
				"t0":      e.T0,
				"t1":      e.T1,
				"updates": e.Updates,
				"worker":  e.Worker,
			},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
