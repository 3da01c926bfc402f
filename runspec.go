package nustencil

import (
	"context"
	"encoding/json"
	"time"
)

// RunSpec selects everything one execution can do — timestep count,
// trace recording, timeline rendering, simulated performance counters —
// in a single value that marshals to JSON, so a job server can take a
// spec straight off the wire and hand it to Execute unchanged; see
// DESIGN.md "Execute".
//
// The zero RunSpec runs zero timesteps and collects nothing.
type RunSpec struct {
	// Timesteps is the number of Jacobi iterations to advance. Zero runs
	// nothing and returns an empty report (a server should default it
	// from its job admission policy, not here: an explicit zero stays a
	// no-op).
	Timesteps int `json:"timesteps"`
	// Trace records the execution timeline; RunOutput.Trace carries it.
	Trace bool `json:"trace,omitempty"`
	// TimelineWidth, when positive, renders the recorded trace as a text
	// Gantt chart this many columns wide into RunOutput.Timeline. It
	// implies Trace.
	TimelineWidth int `json:"timeline_width,omitempty"`
	// Counters collects simulated performance counters — each tile's
	// traffic priced with the scheme's cost model and attributed to NUMA
	// nodes through page ownership — and a bottleneck attribution;
	// RunOutput.Counters carries them. With Trace also set, the scheduler
	// samples become Chrome trace counter tracks.
	Counters bool `json:"counters,omitempty"`
	// Machine selects the modeled machine pricing the counters (default
	// XeonX7550). Consulted only when Counters is set.
	Machine MachineName `json:"machine,omitempty"`
	// SamplePeriod is the scheduler sampling period for ready-queue depth
	// and idle-worker counts in counted runs: zero means the default 1 ms,
	// negative disables sampling. The sampler reads only atomics the
	// scheduler already maintains, so the per-tile hot path is unaffected
	// either way. Consulted only when Counters is set.
	SamplePeriod time.Duration `json:"sample_period_ns,omitempty"`
}

// samplePeriod resolves SamplePeriod's default: 1 ms for zero, and zero
// (no sampling) for a negative period.
func (spec RunSpec) samplePeriod() time.Duration {
	if spec.SamplePeriod == 0 {
		return time.Millisecond
	}
	if spec.SamplePeriod < 0 {
		return 0
	}
	return spec.SamplePeriod
}

// RunOutput bundles everything one execution produced. Fields beyond
// Report are nil/empty unless the RunSpec asked for them.
type RunOutput struct {
	// Report summarizes the run (always present, identity fields only on
	// a failed run).
	Report Report
	// Trace is the recorded execution timeline (RunSpec.Trace).
	Trace *Trace
	// Timeline is the rendered text Gantt chart (RunSpec.TimelineWidth).
	Timeline string
	// Counters are the simulated performance counters with their
	// bottleneck attribution (RunSpec.Counters).
	Counters *PerfCounters
}

// runOutputJSON is the stable wire form of a RunOutput: the report, the
// trace digest (the raw trace exports separately as Chrome trace-event
// JSON), the bottleneck verdict, and the full counter document.
type runOutputJSON struct {
	Report       Report            `json:"report"`
	TraceSummary *TraceSummary     `json:"trace_summary,omitempty"`
	Bottleneck   *BottleneckReport `json:"bottleneck,omitempty"`
	Counters     *PerfCounters     `json:"counters,omitempty"`
}

// MarshalJSON emits the output as one document: the report, the trace
// digest when traced, and the counters with their bottleneck verdict
// when counted. The raw trace does not round-trip through here — export
// it with Trace.WriteChromeTrace.
func (o *RunOutput) MarshalJSON() ([]byte, error) {
	doc := runOutputJSON{Report: o.Report, Counters: o.Counters}
	if o.Trace != nil {
		s := o.Trace.Summary()
		doc.TraceSummary = &s
	}
	if o.Counters != nil {
		b := o.Counters.Bottleneck()
		doc.Bottleneck = &b
	}
	return json.Marshal(doc)
}

// Execute advances the grid by spec.Timesteps iterations, collecting
// whatever observability the spec selects, and returns the bundled
// output. It is the solver's one execution entry point (Run is its
// convenience form): a server unmarshals a RunSpec off the wire and
// calls Execute with the request's context.
//
// A nil ctx means no cancellation (and costs nothing on the hot path);
// with a non-nil ctx, cancellation or deadline expiry stops the engine
// within roughly one tile execution, returns ctx.Err(), and poisons the
// solver (see ErrPoisoned) — per-job solvers keep the poison from
// leaking across jobs. The returned *RunOutput is never nil: on error
// it carries a report holding only the identity fields.
func (s *Solver) Execute(ctx context.Context, spec RunSpec) (*RunOutput, error) {
	if spec.TimelineWidth > 0 {
		spec.Trace = true
	}
	rep, tr, pc, err := s.runSteps(ctx, spec)
	out := &RunOutput{Report: rep, Trace: tr, Counters: pc}
	if err != nil {
		return out, err
	}
	if spec.TimelineWidth > 0 && tr != nil {
		out.Timeline = tr.Timeline(spec.TimelineWidth)
	}
	return out, nil
}
