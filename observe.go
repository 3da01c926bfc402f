package nustencil

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"nustencil/internal/affinity"
	"nustencil/internal/engine"
	"nustencil/internal/experiments"
	"nustencil/internal/grid"
	"nustencil/internal/histo"
	"nustencil/internal/machine"
	"nustencil/internal/memsim"
	"nustencil/internal/perfcount"
	"nustencil/internal/report"
	"nustencil/internal/stencil"
	"nustencil/internal/trace"
)

// SchedulerCounters are one worker's scheduler event counts for a
// dependency-driven run: how often it parked out of work, how many wakeups
// it issued publishing ready tiles, and where its tiles came from. The
// engine accumulates them in worker-local variables and folds them in at
// exit, so collecting them costs nothing on the per-tile hot path.
type SchedulerCounters struct {
	// Parks counts the times the worker parked after finding no ready tile.
	Parks int64 `json:"parks"`
	// Unparks counts the wakeups the worker issued when publishing tiles it
	// made ready.
	Unparks int64 `json:"unparks"`
	// OwnPops and SharedPops count tiles claimed from the worker's own
	// queue and from the shared queue; their sum over all workers equals
	// the tiles executed.
	OwnPops    int64 `json:"own_pops"`
	SharedPops int64 `json:"shared_pops"`
	// EmptyPolls counts polls that found no ready tile.
	EmptyPolls int64 `json:"empty_polls"`
}

func schedCounters(sc []engine.SchedCounters) []SchedulerCounters {
	if sc == nil {
		return nil
	}
	out := make([]SchedulerCounters, len(sc))
	for i, c := range sc {
		out[i] = SchedulerCounters{
			Parks:      c.Parks,
			Unparks:    c.Unparks,
			OwnPops:    c.OwnPops,
			SharedPops: c.SharedPops,
			EmptyPolls: c.EmptyPolls,
		}
	}
	return out
}

// reportJSON is the stable machine-readable form of a Report: base fields
// in snake_case plus the derived rates, so CI and scripts consume
// one format instead of scraping text output.
type reportJSON struct {
	Scheme           SchemeName          `json:"scheme"`
	Workers          int                 `json:"workers"`
	Timesteps        int                 `json:"timesteps"`
	Tiles            int                 `json:"tiles"`
	Updates          int64               `json:"updates"`
	Seconds          float64             `json:"seconds"`
	Gupdates         float64             `json:"gupdates_per_s"`
	GFLOPS           float64             `json:"gflops"`
	FlopsPerUpdate   int                 `json:"flops_per_update"`
	Imbalance        float64             `json:"imbalance"`
	Utilization      float64             `json:"utilization"`
	Kernel           string              `json:"kernel"`
	UpdatesPerWorker []int64             `json:"updates_per_worker,omitempty"`
	Scheduler        []SchedulerCounters `json:"scheduler,omitempty"`
	Dist             *DistStats          `json:"dist,omitempty"`
}

// MarshalJSON emits the report with its derived rates included.
func (r Report) MarshalJSON() ([]byte, error) {
	return json.Marshal(reportJSON{
		Scheme:           r.Scheme,
		Workers:          r.Workers,
		Timesteps:        r.Timesteps,
		Tiles:            r.Tiles,
		Updates:          r.Updates,
		Seconds:          r.Seconds,
		Gupdates:         r.Gupdates(),
		GFLOPS:           r.GFLOPS(),
		FlopsPerUpdate:   r.FlopsPerUpdate,
		Imbalance:        r.Imbalance,
		Utilization:      r.Utilization,
		Kernel:           r.Kernel,
		UpdatesPerWorker: r.UpdatesPerWorker,
		Scheduler:        r.Sched,
		Dist:             r.Dist,
	})
}

// UnmarshalJSON restores the base fields; derived rates in the input are
// ignored and recomputed by the accessor methods.
func (r *Report) UnmarshalJSON(data []byte) error {
	var w reportJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*r = Report{
		Scheme:           w.Scheme,
		Workers:          w.Workers,
		Timesteps:        w.Timesteps,
		Tiles:            w.Tiles,
		Updates:          w.Updates,
		Seconds:          w.Seconds,
		FlopsPerUpdate:   w.FlopsPerUpdate,
		Imbalance:        w.Imbalance,
		Utilization:      w.Utilization,
		Kernel:           w.Kernel,
		UpdatesPerWorker: w.UpdatesPerWorker,
		Sched:            w.Scheduler,
		Dist:             w.Dist,
	}
	return nil
}

// DistStats is the distributed-runtime digest of a multi-rank run
// (Config.Ranks > 1): the chare decomposition, inter-rank traffic
// totals, and the halo-latency and barrier-wait distributions (log₂
// histograms, see histo.Hist). Report.Dist carries it; it is nil on
// single-process runs.
type DistStats struct {
	// Ranks and Chares describe the decomposition the run executed with.
	Ranks  int `json:"ranks"`
	Chares int `json:"chares"`
	// HaloMsgs and HaloBytes count inter-rank halo messages and their
	// payload volume (same-rank halo delivery bypasses the transport and
	// is not counted).
	HaloMsgs  int64 `json:"halo_msgs"`
	HaloBytes int64 `json:"halo_bytes"`
	// Migrations and MigrationBytes count chare moves between ranks and
	// the state volume they carried.
	Migrations     int64 `json:"migrations"`
	MigrationBytes int64 `json:"migration_bytes"`
	// HaloLatency is the send-to-apply latency distribution of inter-rank
	// halo messages; BarrierWait is each rank's wait at each segment
	// barrier (own segment done to all ranks done) — the load-imbalance
	// signal the balancer acts on.
	HaloLatency histo.Hist `json:"halo_latency"`
	BarrierWait histo.Hist `json:"barrier_wait"`
}

// NetworkBytes is the total inter-rank volume: halos plus migrations.
func (d *DistStats) NetworkBytes() int64 { return d.HaloBytes + d.MigrationBytes }

// Trace is the recorded execution timeline of one traced run: which worker
// executed which space-time tile when. It renders as a text Gantt chart
// (Timeline), exports as Chrome trace-event JSON (WriteChromeTrace) and
// digests into per-worker busy/idle accounting (Summary).
type Trace struct {
	tr *trace.Trace
}

// Timeline renders the trace as a text Gantt chart, width columns wide.
func (t *Trace) Timeline(width int) string {
	return t.tr.Timeline(width)
}

// WriteChromeTrace writes the trace in Chrome trace-event JSON, loadable in
// Perfetto or chrome://tracing: one track per worker, one complete event
// per executed tile carrying the tile ID, timestep range and update count.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	return t.tr.WriteChromeTrace(w)
}

// Summary computes the trace digest: span, per-worker busy/idle time and
// utilization, and busy-time imbalance.
func (t *Trace) Summary() TraceSummary {
	s := t.tr.Summary()
	out := TraceSummary{
		Tiles:     s.Tiles,
		Span:      s.Span,
		Updates:   s.Updates,
		Imbalance: s.Imbalance,
		PerWorker: make([]WorkerTraceStat, len(s.PerWorker)),
	}
	for i, ws := range s.PerWorker {
		out.PerWorker[i] = WorkerTraceStat{
			Worker:      ws.Worker,
			Tiles:       ws.Tiles,
			Updates:     ws.Updates,
			Busy:        ws.Busy,
			Idle:        ws.Idle,
			Utilization: ws.Utilization,
		}
	}
	return out
}

// TraceSummary is the computed digest of a Trace.
type TraceSummary struct {
	// Tiles is the number of recorded tile executions.
	Tiles int `json:"tiles"`
	// Span is first-start to last-end wall time.
	Span time.Duration `json:"span_ns"`
	// Updates is the total point updates across all recorded tiles.
	Updates int64 `json:"updates"`
	// Imbalance is max/mean of per-worker busy time (1.0 = perfectly
	// balanced, 0 when nothing ran).
	Imbalance float64           `json:"imbalance"`
	PerWorker []WorkerTraceStat `json:"per_worker"`
}

// WorkerTraceStat is one worker's share of a TraceSummary.
type WorkerTraceStat struct {
	Worker  int           `json:"worker"`
	Tiles   int           `json:"tiles"`
	Updates int64         `json:"updates"`
	Busy    time.Duration `json:"busy_ns"`
	Idle    time.Duration `json:"idle_ns"`
	// Utilization is Busy as a fraction of the trace span.
	Utilization float64 `json:"utilization"`
}

// counting is the simulated-counter state of one counted run: the collector
// the run feeds, and the machine and simulated core count its attribution
// is priced against.
type counting struct {
	col      *perfcount.Collector
	mach     *machine.Machine
	simCores int
}

// newCounting is the counted-run setup shared by the tiled and distributed
// paths. It resolves the counter machine name (XeonX7550 when empty),
// clamps the simulated cores to workers on that machine, prices w's
// traffic with scheme's cost model (w's Machine, Stencil and Cores are
// filled in here), and builds a collector for workers workers. g, when
// non-nil, enables per-node page-ownership attribution.
func (s *Solver) newCounting(name MachineName, scheme SchemeName, w memsim.Workload, workers int, g *grid.Grid) (*counting, error) {
	if name == "" {
		name = XeonX7550
	}
	mach, err := machineFor(name)
	if err != nil {
		return nil, err
	}
	mod, ok := memsim.Models()[string(scheme)]
	if !ok {
		return nil, fmt.Errorf("nustencil: no cost model for scheme %q", scheme)
	}
	w.Machine, w.Stencil, w.Cores = mach, s.st, min(workers, mach.NumCores())
	traffic := mod.Traffic(&w)
	topo := affinity.Fixed{Cores: workers, Nodes: s.cfg.NUMANodes}
	col, err := perfcount.NewCollector(perfcount.Config{
		Workers:            workers,
		Nodes:              s.cfg.NUMANodes,
		NodeOfWorker:       topo.NodeOfCore,
		FlopsPerUpdate:     s.st.FlopsPerUpdate(),
		MainBytesPerUpdate: traffic.MainWords * 8,
		LLCBytesPerUpdate:  traffic.LLCWords * 8,
		Grid:               g,
	})
	if err != nil {
		return nil, err
	}
	return &counting{col: col, mach: mach, simCores: w.Cores}, nil
}

// perf attributes the run's folded counters against its measured seconds.
func (c *counting) perf(counters *perfcount.Counters, st *stencil.Stencil, seconds float64) *PerfCounters {
	return &PerfCounters{c: counters, attr: perfcount.Attribute(counters, c.mach, st, c.simCores, seconds)}
}

// PerfCounters is the folded counter set of one counted run, plus its
// bottleneck attribution: the software stand-in for a PMU/likwid
// measurement session. Counters accumulate worker-locally during the run
// and fold once at exit, so collecting them adds no atomics to the
// per-tile hot path.
type PerfCounters struct {
	c    *perfcount.Counters
	attr perfcount.Attribution
}

// Updates returns the total point updates the counters account.
func (p *PerfCounters) Updates() int64 { return p.c.Updates }

// Flops returns the total floating-point operations.
func (p *PerfCounters) Flops() int64 { return p.c.Flops() }

// LLCBytes returns the bytes the model prices as served by the last-level
// cache.
func (p *PerfCounters) LLCBytes() int64 { return p.c.LLCBytes() }

// MainBytes returns the total simulated main-memory traffic (the sum of
// every node's controller bytes).
func (p *PerfCounters) MainBytes() int64 { return p.c.MainBytes() }

// LocalBytes returns the node-local share of the main-memory traffic.
func (p *PerfCounters) LocalBytes() int64 { return p.c.LocalBytes() }

// RemoteBytes returns the interconnect-crossing share of the main-memory
// traffic.
func (p *PerfCounters) RemoteBytes() int64 { return p.c.RemoteBytes() }

// Ranks returns the rank count of a distributed counted run (0 on the
// single-process path).
func (p *PerfCounters) Ranks() int { return p.c.Ranks }

// NetworkBytes returns the inter-rank traffic (halo payloads plus
// migrated chare state) of a distributed counted run; 0 single-process.
func (p *PerfCounters) NetworkBytes() int64 { return p.c.NetworkBytes }

// MeanTileLatency returns the mean tile execution time.
func (p *PerfCounters) MeanTileLatency() time.Duration {
	h := p.c.Latency()
	return h.Mean()
}

// LatencyQuantile estimates the q-quantile of the tile-latency
// distribution (a conservative upper bound at the histogram's log₂
// resolution).
func (p *PerfCounters) LatencyQuantile(q float64) time.Duration {
	h := p.c.Latency()
	return h.Quantile(q)
}

// Bottleneck returns the attribution verdict: which analytic bound binds
// the run, and by what margin.
func (p *PerfCounters) Bottleneck() BottleneckReport {
	bounds := make([]BoundCost, len(p.attr.Bounds))
	for i, b := range p.attr.Bounds {
		bounds[i] = BoundCost{Bound: b.Bound, Seconds: b.Seconds}
	}
	return BottleneckReport{
		Machine:         p.attr.Machine,
		Cores:           p.attr.Cores,
		Binding:         p.attr.Binding,
		Bottleneck:      p.attr.Bottleneck,
		Margin:          p.attr.Margin,
		HottestNode:     p.attr.HottestNode,
		ModelSeconds:    p.attr.ModelSeconds,
		MeasuredSeconds: p.attr.MeasuredSeconds,
		Bounds:          bounds,
	}
}

// Describe renders the attribution as an aligned text block.
func (p *PerfCounters) Describe() string { return p.attr.String() }

// WritePrometheus writes the counters and attribution in the Prometheus
// text exposition format.
func (p *PerfCounters) WritePrometheus(w io.Writer) error {
	return perfcount.WritePrometheus(w, p.c, &p.attr)
}

// MarshalJSON emits the full counter set and attribution as one document:
// {"counters": {...}, "attribution": {...}}.
func (p *PerfCounters) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Counters    *perfcount.Counters   `json:"counters"`
		Attribution perfcount.Attribution `json:"attribution"`
	}{p.c, p.attr})
}

// BottleneckReport names the analytic bound that binds a counted run.
type BottleneckReport struct {
	// Machine and Cores identify the model the bounds are priced against.
	Machine string `json:"machine"`
	Cores   int    `json:"cores"`
	// Binding is the binding bound: "PeakDP", "LL1Band0C", "SysBandIC",
	// "SysBand0C", "Controller", "Interconnect" or (distributed runs
	// only) "NetBand".
	Binding string `json:"binding"`
	// Bottleneck is the same verdict in the cost model's vocabulary
	// ("compute", "llc", "memory", "controller", "interconnect",
	// "network").
	Bottleneck string `json:"bottleneck"`
	// Margin is the binding bound's seconds over the runner-up's (1.0 = a
	// tie; the higher, the more decisive).
	Margin float64 `json:"margin"`
	// HottestNode is the node whose memory controller served the most
	// bytes.
	HottestNode int `json:"hottest_node"`
	// ModelSeconds is the binding bound's time — the counters' floor on
	// the run time. MeasuredSeconds is the observed wall clock (0 for
	// purely predicted counters).
	ModelSeconds    float64 `json:"model_seconds"`
	MeasuredSeconds float64 `json:"measured_seconds,omitempty"`
	// Bounds lists every bound's seconds, descending.
	Bounds []BoundCost `json:"bounds"`
}

// BoundCost is one analytic bound priced in seconds.
type BoundCost struct {
	Bound   string  `json:"bound"`
	Seconds float64 `json:"seconds"`
}

// RenderFigureCounters regenerates one figure's counter-based bottleneck
// attribution as a text table: the binding analytic bound and its margin
// for every scheme line at every core count, derived from model-predicted
// performance counters. Accepted ids: "fig04".."fig22".
func RenderFigureCounters(id string) (string, error) {
	f, ok := experiments.All()[id]
	if !ok {
		return "", fmt.Errorf("nustencil: unknown figure %q (want fig04..fig22)", id)
	}
	return report.Counters(f.Run()), nil
}

// RenderFigureCountersJSON is RenderFigureCounters as indented JSON,
// carrying the full per-bound pricing of every attribution.
func RenderFigureCountersJSON(id string) (string, error) {
	f, ok := experiments.All()[id]
	if !ok {
		return "", fmt.Errorf("nustencil: unknown figure %q (want fig04..fig22)", id)
	}
	out, err := report.CountersJSON(f.Run())
	return string(out), err
}

// RenderFigureJSON regenerates one paper figure as indented JSON: the
// per-core Gupdates/s series of every line, caption GFLOPS, and (for
// scheme lines) the cost model's bottleneck attribution. Accepted ids:
// "fig03".."fig22".
func RenderFigureJSON(id string) (string, error) {
	if id == "fig03" {
		out, err := report.Fig3JSON(experiments.Fig3())
		return string(out), err
	}
	f, ok := experiments.All()[id]
	if !ok {
		return "", fmt.Errorf("nustencil: unknown figure %q (want fig03..fig22)", id)
	}
	out, err := report.FigureJSON(f.Run())
	return string(out), err
}
