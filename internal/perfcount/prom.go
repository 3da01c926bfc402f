package perfcount

import (
	"fmt"
	"io"

	"nustencil/internal/histo"
)

// WritePrometheus writes the counters — and, when a is non-nil, the
// attribution verdict — in the Prometheus text exposition format: one
// run's totals as gauges (these are run-scoped counters, not a live
// registry scrape), plus the tile-latency histogram with the standard
// cumulative le buckets in seconds. a may be nil to omit the bound pricing.
func WritePrometheus(w io.Writer, c *Counters, a *Attribution) error {
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# HELP nustencil_node_local_bytes Main-memory bytes requested by a node's workers and served locally.\n")
	p("# TYPE nustencil_node_local_bytes gauge\n")
	for _, nd := range c.PerNode {
		p("nustencil_node_local_bytes{node=\"%d\"} %d\n", nd.Node, nd.LocalBytes)
	}
	p("# HELP nustencil_node_remote_bytes Main-memory bytes requested by a node's workers and served by another node (interconnect crossings).\n")
	p("# TYPE nustencil_node_remote_bytes gauge\n")
	for _, nd := range c.PerNode {
		p("nustencil_node_remote_bytes{node=\"%d\"} %d\n", nd.Node, nd.RemoteBytes)
	}
	p("# HELP nustencil_node_controller_bytes Main-memory bytes served by a node's memory controller.\n")
	p("# TYPE nustencil_node_controller_bytes gauge\n")
	for _, nd := range c.PerNode {
		p("nustencil_node_controller_bytes{node=\"%d\"} %d\n", nd.Node, nd.ControllerBytes)
	}

	p("# HELP nustencil_worker_updates Point updates performed by a worker.\n")
	p("# TYPE nustencil_worker_updates gauge\n")
	for _, wc := range c.PerWorker {
		p("nustencil_worker_updates{worker=\"%d\",node=\"%d\"} %d\n", wc.Worker, wc.Node, wc.Updates)
	}
	p("# HELP nustencil_worker_flops Floating-point operations performed by a worker.\n")
	p("# TYPE nustencil_worker_flops gauge\n")
	for _, wc := range c.PerWorker {
		p("nustencil_worker_flops{worker=\"%d\"} %d\n", wc.Worker, wc.Flops)
	}
	p("# HELP nustencil_worker_llc_bytes Bytes the model prices as served by the last-level cache for a worker.\n")
	p("# TYPE nustencil_worker_llc_bytes gauge\n")
	for _, wc := range c.PerWorker {
		p("nustencil_worker_llc_bytes{worker=\"%d\"} %d\n", wc.Worker, wc.LLCBytes)
	}
	p("# HELP nustencil_worker_main_bytes Bytes that reached main memory on a worker's behalf.\n")
	p("# TYPE nustencil_worker_main_bytes gauge\n")
	for _, wc := range c.PerWorker {
		p("nustencil_worker_main_bytes{worker=\"%d\"} %d\n", wc.Worker, wc.MainBytes)
	}

	p("# HELP nustencil_tile_latency_seconds Tile execution latency.\n")
	p("# TYPE nustencil_tile_latency_seconds histogram\n")
	h := c.Latency()
	var cum int64
	for b, cnt := range h.Counts {
		cum += cnt
		if cnt == 0 {
			continue
		}
		_, hi := histo.BucketBounds(b)
		p("nustencil_tile_latency_seconds_bucket{le=\"%g\"} %d\n", hi.Seconds(), cum)
	}
	p("nustencil_tile_latency_seconds_bucket{le=\"+Inf\"} %d\n", h.N)
	p("nustencil_tile_latency_seconds_sum %g\n", h.Sum.Seconds())
	p("nustencil_tile_latency_seconds_count %d\n", h.N)

	if len(c.Samples) > 0 {
		last := c.Samples[len(c.Samples)-1]
		p("# HELP nustencil_ready_tiles Ready-queue depth at the last scheduler sample.\n")
		p("# TYPE nustencil_ready_tiles gauge\n")
		p("nustencil_ready_tiles %d\n", last.ReadyTiles)
		p("# HELP nustencil_idle_workers Idle workers at the last scheduler sample.\n")
		p("# TYPE nustencil_idle_workers gauge\n")
		p("nustencil_idle_workers %d\n", last.IdleWorkers)
	}

	if a != nil {
		p("# HELP nustencil_bound_seconds Each analytic bound priced against the run's counters.\n")
		p("# TYPE nustencil_bound_seconds gauge\n")
		for _, bc := range a.Bounds {
			p("nustencil_bound_seconds{bound=%q} %g\n", bc.Bound, bc.Seconds)
		}
		p("# HELP nustencil_bound_binding The binding bound (1 on the bound that limits the run).\n")
		p("# TYPE nustencil_bound_binding gauge\n")
		p("nustencil_bound_binding{bound=%q,bottleneck=%q} 1\n", a.Binding, a.Bottleneck)
	}
	return err
}
