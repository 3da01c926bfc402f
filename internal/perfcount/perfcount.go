// Package perfcount is the simulated performance-counter subsystem: the
// software stand-in for the PMU/likwid measurements the paper's evaluation
// is built on. A Collector instruments a real execution tile by tile —
// pricing each tile's traffic with the scheme's memsim model and
// attributing it to NUMA nodes through the grid's first-touch page
// ownership — into per-node counters (local vs. remote bytes, controller
// traffic, interconnect crossings), per-worker counters (FLOPs, LLC-served
// bytes, a log₂-bucketed tile-latency histogram) and periodic scheduler
// samples (ready-queue depth, idle workers).
//
// Counters accumulate worker-locally in padded shards and fold once at the
// end, the same zero-hot-path-atomics discipline as the engine's
// Stats.Sched; because each tile is priced with exactly the model's
// words-per-update rates, the folded counters sum to the model's total
// predicted traffic (a property the conservation tests pin down).
//
// On top sits the attribution engine (Attribute): price a run's counters
// against a machine model's bandwidth hierarchy and name the analytic
// bound that binds it — PeakDP, LL1Band0C, SysBandIC, SysBand0C, the
// hottest node's controller, the interconnect, or (for multi-rank runs)
// the network links — and by what margin.
// This is the paper's figure-by-figure bottleneck reasoning turned into a
// checkable report: FromModel predicts the counters a workload would
// produce, and attribution on those counters reproduces memsim.Predict's
// bottleneck term exactly.
package perfcount

import (
	"time"

	"nustencil/internal/histo"
)

// NodeCounters is one NUMA node's share of a run's simulated main-memory
// traffic, in bytes. LocalBytes and RemoteBytes are requester-side (what
// this node's workers asked for); ControllerBytes is server-side (what
// this node's memory controller delivered, regardless of who asked). Both
// views sum to the same total over all nodes.
type NodeCounters struct {
	Node int `json:"node"`
	// LocalBytes is traffic requested by this node's workers and served by
	// pages this node owns.
	LocalBytes int64 `json:"local_bytes"`
	// RemoteBytes is traffic requested by this node's workers but served by
	// another node's controller — every byte is one interconnect crossing.
	RemoteBytes int64 `json:"remote_bytes"`
	// ControllerBytes is traffic this node's memory controller served.
	ControllerBytes int64 `json:"controller_bytes"`
}

// WorkerCounters is one worker's share of a run.
type WorkerCounters struct {
	Worker int `json:"worker"`
	// Node is the NUMA node the worker (virtual core) belongs to.
	Node    int   `json:"node"`
	Tiles   int64 `json:"tiles"`
	Updates int64 `json:"updates"`
	// Flops is updates × the stencil's flops per update.
	Flops int64 `json:"flops"`
	// LLCBytes is the traffic the scheme's model prices as served by the
	// last-level cache for this worker's updates.
	LLCBytes int64 `json:"llc_bytes"`
	// MainBytes is the traffic that reached main memory on this worker's
	// behalf (its share of the run's local + remote requests).
	MainBytes int64 `json:"main_bytes"`
	// Latency is the log₂-bucketed distribution of the worker's tile
	// execution times.
	Latency histo.Hist `json:"latency"`
}

// Sample is one periodic scheduler observation.
type Sample struct {
	Elapsed time.Duration `json:"elapsed_ns"`
	// ReadyTiles counts tiles enqueued ready but claimed by no worker
	// (under the static executor: tiles not yet executed).
	ReadyTiles int `json:"ready_tiles"`
	// IdleWorkers counts workers out of work (parked or spin-waiting).
	IdleWorkers int `json:"idle_workers"`
}

// Counters is the folded result of one instrumented run — or, via
// FromModel, the counters the cost model predicts a workload would
// produce.
type Counters struct {
	Workers   int              `json:"workers"`
	Nodes     int              `json:"nodes"`
	Updates   int64            `json:"updates"`
	PerWorker []WorkerCounters `json:"per_worker"`
	PerNode   []NodeCounters   `json:"per_node"`
	Samples   []Sample         `json:"samples,omitempty"`
	// Ranks is the distributed run's simulated node count (0 or 1 for
	// single-process runs, which have no network traffic).
	Ranks int `json:"ranks,omitempty"`
	// NetworkBytes is the inter-rank halo traffic of a distributed run:
	// the payload bytes the transport carried between ranks. Attribute
	// prices it against the machine's network links when Ranks > 1.
	NetworkBytes int64 `json:"network_bytes,omitempty"`
}

// Tiles returns the total tile executions.
func (c *Counters) Tiles() int64 {
	var n int64
	for i := range c.PerWorker {
		n += c.PerWorker[i].Tiles
	}
	return n
}

// Flops returns the total floating-point operations.
func (c *Counters) Flops() int64 {
	var n int64
	for i := range c.PerWorker {
		n += c.PerWorker[i].Flops
	}
	return n
}

// LLCBytes returns the total last-level-cache-served bytes.
func (c *Counters) LLCBytes() int64 {
	var n int64
	for i := range c.PerWorker {
		n += c.PerWorker[i].LLCBytes
	}
	return n
}

// MainBytes returns the total main-memory bytes (the sum every
// conservation property refers to): per-node controller traffic.
func (c *Counters) MainBytes() int64 {
	var n int64
	for i := range c.PerNode {
		n += c.PerNode[i].ControllerBytes
	}
	return n
}

// LocalBytes returns the total node-local main-memory bytes.
func (c *Counters) LocalBytes() int64 {
	var n int64
	for i := range c.PerNode {
		n += c.PerNode[i].LocalBytes
	}
	return n
}

// RemoteBytes returns the total interconnect-crossing bytes.
func (c *Counters) RemoteBytes() int64 {
	var n int64
	for i := range c.PerNode {
		n += c.PerNode[i].RemoteBytes
	}
	return n
}

// HottestNode returns the node whose controller served the most bytes, and
// how many. An empty counter set yields node 0 with 0 bytes.
func (c *Counters) HottestNode() (node int, bytes int64) {
	for i := range c.PerNode {
		if c.PerNode[i].ControllerBytes > bytes {
			node, bytes = i, c.PerNode[i].ControllerBytes
		}
	}
	return node, bytes
}

// Latency returns the run-wide tile-latency histogram: the merge of every
// worker's.
func (c *Counters) Latency() histo.Hist {
	var h histo.Hist
	for i := range c.PerWorker {
		h.Merge(&c.PerWorker[i].Latency)
	}
	return h
}
