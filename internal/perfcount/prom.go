package perfcount

import (
	"io"
	"strconv"

	"nustencil/internal/prom"
)

// WritePrometheus writes the counters — and, when a is non-nil, the
// attribution verdict — in the Prometheus text exposition format: one
// run's totals as gauges (these are run-scoped counters, not a live
// registry scrape), plus the tile-latency histogram with the standard
// cumulative le buckets in seconds. a may be nil to omit the bound pricing.
func WritePrometheus(w io.Writer, c *Counters, a *Attribution) error {
	p := prom.NewWriter(w)

	p.Family("nustencil_node_local_bytes", "gauge", "Main-memory bytes requested by a node's workers and served locally.")
	for _, nd := range c.PerNode {
		p.Int("nustencil_node_local_bytes", nd.LocalBytes, "node", strconv.Itoa(nd.Node))
	}
	p.Family("nustencil_node_remote_bytes", "gauge", "Main-memory bytes requested by a node's workers and served by another node (interconnect crossings).")
	for _, nd := range c.PerNode {
		p.Int("nustencil_node_remote_bytes", nd.RemoteBytes, "node", strconv.Itoa(nd.Node))
	}
	p.Family("nustencil_node_controller_bytes", "gauge", "Main-memory bytes served by a node's memory controller.")
	for _, nd := range c.PerNode {
		p.Int("nustencil_node_controller_bytes", nd.ControllerBytes, "node", strconv.Itoa(nd.Node))
	}

	p.Family("nustencil_worker_updates", "gauge", "Point updates performed by a worker.")
	for _, wc := range c.PerWorker {
		p.Int("nustencil_worker_updates", wc.Updates, "worker", strconv.Itoa(wc.Worker), "node", strconv.Itoa(wc.Node))
	}
	p.Family("nustencil_worker_flops", "gauge", "Floating-point operations performed by a worker.")
	for _, wc := range c.PerWorker {
		p.Int("nustencil_worker_flops", wc.Flops, "worker", strconv.Itoa(wc.Worker))
	}
	p.Family("nustencil_worker_llc_bytes", "gauge", "Bytes the model prices as served by the last-level cache for a worker.")
	for _, wc := range c.PerWorker {
		p.Int("nustencil_worker_llc_bytes", wc.LLCBytes, "worker", strconv.Itoa(wc.Worker))
	}
	p.Family("nustencil_worker_main_bytes", "gauge", "Bytes that reached main memory on a worker's behalf.")
	for _, wc := range c.PerWorker {
		p.Int("nustencil_worker_main_bytes", wc.MainBytes, "worker", strconv.Itoa(wc.Worker))
	}

	h := c.Latency()
	p.Histogram("nustencil_tile_latency_seconds", "Tile execution latency.", &h)

	if len(c.Samples) > 0 {
		last := c.Samples[len(c.Samples)-1]
		p.Family("nustencil_ready_tiles", "gauge", "Ready-queue depth at the last scheduler sample.")
		p.Int("nustencil_ready_tiles", int64(last.ReadyTiles))
		p.Family("nustencil_idle_workers", "gauge", "Idle workers at the last scheduler sample.")
		p.Int("nustencil_idle_workers", int64(last.IdleWorkers))
	}

	if a != nil {
		p.Family("nustencil_bound_seconds", "gauge", "Each analytic bound priced against the run's counters.")
		for _, bc := range a.Bounds {
			p.Float("nustencil_bound_seconds", bc.Seconds, "bound", bc.Bound)
		}
		p.Family("nustencil_bound_binding", "gauge", "The binding bound (1 on the bound that limits the run).")
		p.Int("nustencil_bound_binding", 1, "bound", a.Binding, "bottleneck", a.Bottleneck)
	}
	return p.Err()
}
