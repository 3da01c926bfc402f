package perfcount

import (
	"fmt"
	"math"
	"time"

	"nustencil/internal/grid"
	"nustencil/internal/histo"
	"nustencil/internal/spacetime"
)

// Config describes how a Collector prices and attributes one run.
type Config struct {
	// Workers is the run's worker count. Required.
	Workers int
	// Nodes is the modeled NUMA node count of the run's page ownership
	// (default 1).
	Nodes int
	// NodeOfWorker maps a worker to its NUMA node — affinity.Fixed's
	// NodeOfCore in the solver. Nil puts every worker on node 0.
	NodeOfWorker func(w int) int
	// FlopsPerUpdate, MainBytesPerUpdate and LLCBytesPerUpdate are the
	// pricing: flops from the stencil, bytes per update from the scheme's
	// memsim traffic model. Pricing every tile with the model's rates is
	// what makes the folded counters sum to the model's total prediction.
	FlopsPerUpdate     int
	MainBytesPerUpdate float64
	LLCBytesPerUpdate  float64
	// Grid, when non-nil, supplies first-touch page ownership: a tile's
	// main-memory traffic is split over nodes in proportion to who owns the
	// pages of its bounding box (untouched pages count as node 0, where a
	// serial initialization would fault them). Nil attributes every byte to
	// the requesting worker's own node.
	Grid *grid.Grid
}

// Collector accumulates simulated performance counters for one run. Each
// worker writes only its own padded shard, so RecordTile on the execution
// hot path takes no lock and touches no shared cache line; Counters folds
// the shards once after the run.
type Collector struct {
	cfg     Config
	shards  []shard
	samples []Sample
}

// shard is one worker's private accumulator, padded out so neighbouring
// workers' hot counters do not false-share. Byte counters accumulate in
// float64 and round once at fold time, so per-tile rounding cannot drift
// the conservation sum.
type shard struct {
	tiles   int64
	updates int64
	flops   int64
	llc     float64
	local   float64
	remote  float64
	// ctrl[d] is the main traffic this worker's tiles pulled from node d's
	// controller; scratch is the ownership-count buffer (len Nodes+1).
	ctrl    []float64
	scratch []int64
	// bbox/bounds are per-shard box scratch for the ownership lookup, sized
	// lazily on the first priced tile so RecordTile stays allocation-free on
	// the steady state.
	bbox   grid.Box
	bounds grid.Box
	lat    histo.Hist
	_      [64]byte
}

// NewCollector validates cfg and allocates the per-worker shards.
func NewCollector(cfg Config) (*Collector, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("perfcount: workers must be positive, got %d", cfg.Workers)
	}
	if cfg.Nodes <= 0 {
		cfg.Nodes = 1
	}
	c := &Collector{cfg: cfg, shards: make([]shard, cfg.Workers)}
	for w := range c.shards {
		c.shards[w].ctrl = make([]float64, cfg.Nodes)
		c.shards[w].scratch = make([]int64, cfg.Nodes+1)
	}
	return c, nil
}

func (c *Collector) nodeOf(w int) int {
	if c.cfg.NodeOfWorker == nil {
		return 0
	}
	if n := c.cfg.NodeOfWorker(w); n >= 0 && n < c.cfg.Nodes {
		return n
	}
	return 0
}

// RecordTile prices one executed tile into worker w's shard: updates ×
// the model's per-update rates, with the main-memory share distributed
// over nodes by the page ownership of the tile's bounding box. It must be
// called only from worker w (the engine's per-worker execution guarantees
// this), and is allocation-free.
func (c *Collector) RecordTile(w int, tile *spacetime.Tile, updates int64, d time.Duration) {
	sh := &c.shards[w]
	sh.tiles++
	sh.updates += updates
	sh.flops += updates * int64(c.cfg.FlopsPerUpdate)
	sh.llc += float64(updates) * c.cfg.LLCBytesPerUpdate
	sh.lat.Observe(d)

	mb := float64(updates) * c.cfg.MainBytesPerUpdate
	if mb <= 0 {
		return
	}
	node := c.nodeOf(w)
	g := c.cfg.Grid
	if g == nil || c.cfg.Nodes <= 1 {
		sh.ctrl[node] += mb
		sh.local += mb
		return
	}
	if nd := tile.NumDims(); len(sh.bbox.Lo) != nd {
		sh.bbox = grid.MakeBox(nd)
		sh.bounds = g.Bounds()
	}
	g.OwnershipCountInto(tile.BBoxInto(sh.bbox).ClipTo(sh.bounds), sh.scratch)
	var total int64
	for _, n := range sh.scratch {
		total += n
	}
	if total == 0 {
		sh.ctrl[node] += mb
		sh.local += mb
		return
	}
	for dn := 0; dn < c.cfg.Nodes; dn++ {
		cnt := sh.scratch[dn]
		if dn == 0 {
			cnt += sh.scratch[c.cfg.Nodes] // untouched pages fault on node 0
		}
		if cnt == 0 {
			continue
		}
		share := mb * float64(cnt) / float64(total)
		sh.ctrl[dn] += share
		if dn == node {
			sh.local += share
		} else {
			sh.remote += share
		}
	}
}

// RecordSample buffers one scheduler sample. It runs on the engine's
// sampler goroutine; the engine stops the sampler before its Run returns,
// so RecordSample never races with Counters.
func (c *Collector) RecordSample(s Sample) {
	c.samples = append(c.samples, s)
}

// Counters folds the worker shards into the run's counter set. Call it
// only after the run has returned.
func (c *Collector) Counters() *Counters {
	out := &Counters{
		Workers:   c.cfg.Workers,
		Nodes:     c.cfg.Nodes,
		PerWorker: make([]WorkerCounters, c.cfg.Workers),
		PerNode:   make([]NodeCounters, c.cfg.Nodes),
		Samples:   c.samples,
	}
	for n := range out.PerNode {
		out.PerNode[n].Node = n
	}
	for w := range c.shards {
		sh := &c.shards[w]
		node := c.nodeOf(w)
		out.PerWorker[w] = WorkerCounters{
			Worker:    w,
			Node:      node,
			Tiles:     sh.tiles,
			Updates:   sh.updates,
			Flops:     sh.flops,
			LLCBytes:  int64(math.Round(sh.llc)),
			MainBytes: int64(math.Round(sh.local + sh.remote)),
			Latency:   sh.lat,
		}
		out.Updates += sh.updates
		nd := &out.PerNode[node]
		nd.LocalBytes += int64(math.Round(sh.local))
		nd.RemoteBytes += int64(math.Round(sh.remote))
		for dn, b := range sh.ctrl {
			out.PerNode[dn].ControllerBytes += int64(math.Round(b))
		}
	}
	return out
}
