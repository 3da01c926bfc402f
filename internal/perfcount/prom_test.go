package perfcount

import (
	"bytes"
	"testing"
	"time"

	"nustencil/internal/histo"
)

// TestWritePrometheusGolden pins the counter exposition byte for byte,
// with and without the optional sections (scheduler samples, attribution).
func TestWritePrometheusGolden(t *testing.T) {
	var lat0, lat1 histo.Hist
	for _, d := range []time.Duration{3 * time.Microsecond, 5 * time.Microsecond, 70 * time.Microsecond} {
		lat0.Observe(d)
	}
	lat1.Observe(1500 * time.Microsecond)
	c := &Counters{
		Workers: 2,
		Nodes:   2,
		Updates: 1000,
		PerWorker: []WorkerCounters{
			{Worker: 0, Node: 0, Tiles: 3, Updates: 600, Flops: 7800, LLCBytes: 4800, MainBytes: 2400, Latency: lat0},
			{Worker: 1, Node: 1, Tiles: 1, Updates: 400, Flops: 5200, LLCBytes: 3200, MainBytes: 1600, Latency: lat1},
		},
		PerNode: []NodeCounters{
			{Node: 0, LocalBytes: 2000, RemoteBytes: 400, ControllerBytes: 2100},
			{Node: 1, LocalBytes: 1300, RemoteBytes: 300, ControllerBytes: 1900},
		},
	}
	a := &Attribution{
		Binding:    "SysBand0C",
		Bottleneck: "memory",
		Bounds:     []BoundCost{{Bound: "SysBand0C", Seconds: 1.5e-3}, {Bound: "PeakDP", Seconds: 2.5e-5}},
	}
	samples := []Sample{
		{Elapsed: time.Millisecond, ReadyTiles: 9, IdleWorkers: 0},
		{Elapsed: 2 * time.Millisecond, ReadyTiles: 5, IdleWorkers: 1},
	}

	for _, tc := range []struct {
		name    string
		samples []Sample
		a       *Attribution
		want    string
	}{
		{"bare", nil, nil, promCounters},
		{"full", samples, a, promCounters + promSamples + promAttribution},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c.Samples = tc.samples
			var buf bytes.Buffer
			if err := WritePrometheus(&buf, c, tc.a); err != nil {
				t.Fatal(err)
			}
			if got := buf.String(); got != tc.want {
				t.Errorf("exposition changed:\n--- got\n%s\n--- want\n%s", got, tc.want)
			}
		})
	}
}

const promCounters = `# HELP nustencil_node_local_bytes Main-memory bytes requested by a node's workers and served locally.
# TYPE nustencil_node_local_bytes gauge
nustencil_node_local_bytes{node="0"} 2000
nustencil_node_local_bytes{node="1"} 1300
# HELP nustencil_node_remote_bytes Main-memory bytes requested by a node's workers and served by another node (interconnect crossings).
# TYPE nustencil_node_remote_bytes gauge
nustencil_node_remote_bytes{node="0"} 400
nustencil_node_remote_bytes{node="1"} 300
# HELP nustencil_node_controller_bytes Main-memory bytes served by a node's memory controller.
# TYPE nustencil_node_controller_bytes gauge
nustencil_node_controller_bytes{node="0"} 2100
nustencil_node_controller_bytes{node="1"} 1900
# HELP nustencil_worker_updates Point updates performed by a worker.
# TYPE nustencil_worker_updates gauge
nustencil_worker_updates{worker="0",node="0"} 600
nustencil_worker_updates{worker="1",node="1"} 400
# HELP nustencil_worker_flops Floating-point operations performed by a worker.
# TYPE nustencil_worker_flops gauge
nustencil_worker_flops{worker="0"} 7800
nustencil_worker_flops{worker="1"} 5200
# HELP nustencil_worker_llc_bytes Bytes the model prices as served by the last-level cache for a worker.
# TYPE nustencil_worker_llc_bytes gauge
nustencil_worker_llc_bytes{worker="0"} 4800
nustencil_worker_llc_bytes{worker="1"} 3200
# HELP nustencil_worker_main_bytes Bytes that reached main memory on a worker's behalf.
# TYPE nustencil_worker_main_bytes gauge
nustencil_worker_main_bytes{worker="0"} 2400
nustencil_worker_main_bytes{worker="1"} 1600
# HELP nustencil_tile_latency_seconds Tile execution latency.
# TYPE nustencil_tile_latency_seconds histogram
nustencil_tile_latency_seconds_bucket{le="4.096e-06"} 1
nustencil_tile_latency_seconds_bucket{le="8.192e-06"} 2
nustencil_tile_latency_seconds_bucket{le="0.000131072"} 3
nustencil_tile_latency_seconds_bucket{le="0.002097152"} 4
nustencil_tile_latency_seconds_bucket{le="+Inf"} 4
nustencil_tile_latency_seconds_sum 0.001578
nustencil_tile_latency_seconds_count 4
`

const promSamples = `# HELP nustencil_ready_tiles Ready-queue depth at the last scheduler sample.
# TYPE nustencil_ready_tiles gauge
nustencil_ready_tiles 5
# HELP nustencil_idle_workers Idle workers at the last scheduler sample.
# TYPE nustencil_idle_workers gauge
nustencil_idle_workers 1
`

const promAttribution = `# HELP nustencil_bound_seconds Each analytic bound priced against the run's counters.
# TYPE nustencil_bound_seconds gauge
nustencil_bound_seconds{bound="SysBand0C"} 0.0015
nustencil_bound_seconds{bound="PeakDP"} 2.5e-05
# HELP nustencil_bound_binding The binding bound (1 on the bound that limits the run).
# TYPE nustencil_bound_binding gauge
nustencil_bound_binding{bound="SysBand0C",bottleneck="memory"} 1
`
