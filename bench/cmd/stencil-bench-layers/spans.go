package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span threads: the benchmark's own sequence of layer calls, and the
// serving workload's client and server sides.
const (
	tidMain = iota
	tidSender
	tidServer
	tidCaller
)

var tidNames = [...]string{"benchmark", "open-loop senders", "server jobs", "closed-loop callers"}

// span is one timed call into a layer, recorded from the benchmark's own
// code: nothing inside the program is instrumented.
type span struct {
	name       string
	tid        int
	start, end time.Time
	// id names the span, parent the span that caused it (0: none), op
	// the operation it belongs to (a round, a job).
	id, parent, op int
}

// spans keeps the run's spans in memory until they are written.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// add records a finished span and returns its id.
func (s *spans) add(name string, tid, parent, op int, start, end time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := len(s.list) + 1
	s.list = append(s.list, span{name: name, tid: tid, start: start, end: end, id: id, parent: parent, op: op})
	return id
}

// timed runs f and records it as a span.
func (s *spans) timed(name string, parent, op int, f func()) (int, time.Duration) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	return s.add(name, tidMain, parent, op, t0, t1), t1.Sub(t0)
}

// open starts a span whose end is set later with close, for spans that
// enclose others.
func (s *spans) open(name string, parent, op int) int {
	now := time.Now()
	return s.add(name, tidMain, parent, op, now, now)
}

func (s *spans) close(id int) {
	s.mu.Lock()
	s.list[id-1].end = time.Now()
	s.mu.Unlock()
}

func (s *spans) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.list)
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as Chrome trace-event JSON: one complete event
// per span, with its id, parent and op in args.
func (s *spans) write(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	evs := []chromeEvent{{Name: "process_name", Ph: "M", Args: map[string]any{"name": "stencil-bench-layers"}}}
	for tid, name := range tidNames {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Tid: tid, Args: map[string]any{"name": name}})
	}
	for _, sp := range s.list {
		dur := float64(sp.end.Sub(sp.start).Nanoseconds()) / 1e3
		evs = append(evs, chromeEvent{
			Name: sp.name, Ph: "X", Tid: sp.tid,
			Ts:   float64(sp.start.Sub(s.t0).Nanoseconds()) / 1e3,
			Dur:  &dur,
			Args: map[string]any{"id": sp.id, "parent": sp.parent, "op": sp.op},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}{evs}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
