package dist

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"nustencil/internal/engine"
	"nustencil/internal/grid"
	"nustencil/internal/histo"
	"nustencil/internal/spacetime"
	"nustencil/internal/stencil"
	"nustencil/internal/trace"
)

// Problem is the global state a distributed run advances: the solver's
// grid (current parity Base), stencil, and optional per-cell
// coefficients and source term. The runtime scatters it into per-chare
// grids at construction and gathers the result back on success, so a
// failed run leaves the global grid untouched.
type Problem struct {
	Grid *grid.Grid
	// Base is the parity of the grid buffer holding the current state
	// (the solver's completed timestep count).
	Base    int
	Stencil *stencil.Stencil
	// Coeffs are the banded per-cell coefficients (nil for constant
	// stencils).
	Coeffs *stencil.Coefficients
	// Source is the optional additive per-cell term.
	Source []float64
}

// Options configures a distributed run.
type Options struct {
	// Ranks is the number of simulated nodes (required, ≥ 1).
	Ranks int
	// ChareFactor is the overdecomposition ratio: the runtime asks for
	// Ranks·ChareFactor chares (default DefaultChareFactor).
	ChareFactor int
	// WorkersPerRank is the number of engine workers each rank runs
	// (default 1). Each chare-step runs on one worker of its rank: the
	// rank's chares are dealt round-robin over its workers, so each chare
	// keeps one worker, except on a rank whose chare count is not a
	// multiple of WorkersPerRank, whose deal shifts by one worker every
	// step so that its workers share its chare-steps evenly.
	WorkersPerRank int
	// LBPeriod inserts a load-balance barrier every LBPeriod timesteps
	// (the Charm++ AtSync/LBPERIOD_ITER pattern); 0 disables migration.
	LBPeriod int
	// Balancer decides migrations at each barrier (default
	// GreedyBalancer).
	Balancer Balancer
	// LoadFunc, when set, adds synthetic per-chare per-step work (spin
	// iterations) — the CHANGELOAD-style time-varying hotspot used to
	// demonstrate and test migration.
	LoadFunc func(chare, step int) int
	// Transport overrides the in-process transport (tests).
	Transport Transport
	// OnExec observes every chare-step's kernel time with the global
	// worker index (rank·WorkersPerRank + local worker) — the counter
	// layer's hook. Called from engine workers, one index never
	// concurrently.
	OnExec func(worker int, updates int64, d time.Duration)
	// Trace, when set, collects the distributed timeline: per-rank
	// processes, per-chare spans, halo flow arrows, migration/AtSync
	// instants, and per-rank counter tracks. Records are buffered in
	// single-writer shards during the run and folded into Trace once at
	// Run exit (success only); nil adds no work to the hot path.
	Trace *trace.Trace
}

// Result summarizes a distributed run.
type Result struct {
	Updates    int64
	Chares     int
	ChareSteps int64
	// Workers is the total worker count (Ranks × WorkersPerRank).
	Workers          int
	UpdatesPerWorker []int64
	BusyPerWorker    []time.Duration
	Migrations       int64
	// Net is the transport's inter-rank traffic.
	Net Stats
}

// neighborRef names one face neighbor: the adjacent chare along dim on
// side (-1 low, +1 high).
type neighborRef struct {
	id        int
	dim, side int
}

// chare is one block of the overdecomposed grid: a private grid of the
// owned box plus a ghost ring of width order, the stencil kernel bound
// to it, and its face neighbors.
type chare struct {
	id         int
	order      int
	owned      grid.Box // global coordinates
	off        []int    // global coordinate of the local origin (owned.Lo − order)
	ownedLocal grid.Box // owned box in local coordinates
	g          *grid.Grid
	op         *stencil.Op
	coeffs     *stencil.Coefficients
	src        []float64
	neighbors  []neighborRef
	segBusy    time.Duration // execution time since the last balance point
	sink       float64       // keeps LoadFunc spins observable
}

// localIndex maps a global point inside the chare's grown region to its
// flat offset in the chare grid.
func (c *chare) localIndex(globalPt []int) int {
	idx := 0
	for k, p := range globalPt {
		idx += (p - c.off[k]) * c.g.Stride(k)
	}
	return idx
}

// sendSlab is the local-coordinate box of owned cells the (dim, side)
// neighbor reads: the face slab of width order.
func (c *chare) sendSlab(dim, side int) grid.Box {
	b := c.ownedLocal.Clone()
	if side < 0 {
		b.Hi[dim] = b.Lo[dim] + c.order
	} else {
		b.Lo[dim] = b.Hi[dim] - c.order
	}
	return b
}

// ghostSlab is the local-coordinate ghost box on side of dim, where the
// (dim, side) neighbor's halo lands.
func (c *chare) ghostSlab(dim, side int) grid.Box {
	b := c.ownedLocal.Clone()
	if side < 0 {
		b.Hi[dim] = b.Lo[dim]
		b.Lo[dim] -= c.order
	} else {
		b.Lo[dim] = b.Hi[dim]
		b.Hi[dim] += c.order
	}
	return b
}

// packHalo flattens the (dim, side) send slab of the parity buffer into
// a payload, row-major.
func (c *chare) packHalo(dim, side, parity int) []float64 {
	slab := c.sendSlab(dim, side)
	out := make([]float64, 0, slab.Size())
	src := c.g.Buf(parity)
	c.g.ForEachRow(slab, func(off, length int, _ []int) {
		out = append(out, src[off:off+length]...)
	})
	return out
}

// applyHalo unpacks a payload into the (dim, side) ghost slab of the
// parity buffer. Ghost cells are disjoint from every owned cell and
// from other faces' ghosts, so concurrent applies and a concurrent
// owner execution never touch the same element.
func (c *chare) applyHalo(dim, side, parity int, data []float64) {
	slab := c.ghostSlab(dim, side)
	dst := c.g.Buf(parity)
	i := 0
	c.g.ForEachRow(slab, func(off, length int, _ []int) {
		copy(dst[off:off+length], data[i:i+length])
		i += length
	})
}

// stateBytes is the serialized size of the chare's migratable state:
// both buffers, coefficients, and source.
func (c *chare) stateBytes() int64 {
	words := int64(2 * c.g.Len())
	if c.coeffs != nil {
		words += int64(len(c.coeffs.Data)) * int64(c.g.Len())
	}
	if c.src != nil {
		words += int64(len(c.src))
	}
	return 8 * words
}

// rank is one simulated node. Its lock serializes the drains of its
// mailbox (see drain).
type rank struct {
	mu      sync.Mutex
	haloLat histo.Hist // written under mu
}

// windowTiles bounds the chare-steps one engine.Run plans: a segment of
// more than windowTiles/n steps runs as several engine.Runs of one plan,
// so planning memory (about 190 B per chare-step) grows with the chare
// count n, not with the number of timesteps.
const windowTiles = 1 << 12

// Runtime executes one distributed run: chares spread over ranks,
// advancing in segments between load-balance barriers, each segment a
// sequence of engine.Runs of chare-step tiles with halo exchange inside
// the tiles, migration at the barriers.
type Runtime struct {
	prob  Problem
	opts  Options
	tr    Transport
	depth DepthReporter // tr's mailbox backlog, nil when it reports none
	lat   Lattice

	chares []*chare
	// chareRank maps chare → owning rank. Written only at barriers
	// (quiesced), read freely during segments.
	chareRank []int32
	ranks     []rank

	// busy and end are per global worker (rank·WorkersPerRank + local
	// worker), each entry written only by its worker during a segment:
	// kernel time, and the end of the worker's last chare-step in the
	// current segment.
	busy []time.Duration
	end  []time.Time

	T int
	// winT0 is the first step of the engine.Run in flight, written only
	// between runs.
	winT0      int
	migrations int64

	// tc is the trace record buffer (nil when Options.Trace is unset);
	// barrierWait is written only by the Run loop.
	tc          *tracer
	barrierWait histo.Hist
}

// New scatters the problem into chares and builds the rank runtimes.
// The global grid is only read here; it is not written until a
// successful Run gathers the result back.
func New(prob Problem, opts Options) (*Runtime, error) {
	if opts.Ranks < 1 {
		return nil, fmt.Errorf("dist: ranks must be positive, got %d", opts.Ranks)
	}
	if opts.ChareFactor < 1 {
		opts.ChareFactor = DefaultChareFactor
	}
	if opts.WorkersPerRank < 1 {
		opts.WorkersPerRank = 1
	}
	order := prob.Stencil.Order
	interior := prob.Grid.Interior(order)
	if interior.Empty() {
		return nil, fmt.Errorf("dist: grid %v has no interior at order %d", prob.Grid.Dims(), order)
	}
	workers := opts.Ranks * opts.WorkersPerRank
	rt := &Runtime{
		prob:  prob,
		opts:  opts,
		lat:   MakeLattice(interior, opts.Ranks*opts.ChareFactor, order),
		ranks: make([]rank, opts.Ranks),
		busy:  make([]time.Duration, workers),
		end:   make([]time.Time, workers),
	}
	rt.tr = opts.Transport
	if rt.tr == nil {
		rt.tr = NewLocalTransport(opts.Ranks)
	}
	rt.depth, _ = rt.tr.(DepthReporter)
	nd := prob.Grid.NumDims()
	n := rt.lat.NumChares()
	rt.chares = make([]*chare, n)
	rt.chareRank = make([]int32, n)
	for i := 0; i < n; i++ {
		rt.chares[i] = rt.buildChare(i, order, nd)
		rt.chareRank[i] = int32(InitialRank(i, n, opts.Ranks))
	}
	if opts.Trace != nil {
		rt.tc = newTracer(n, nd, workers)
	}
	return rt, nil
}

// buildChare allocates chare i's private grid (owned extent plus a
// ghost ring of width order per side), copies the current global state
// into both local buffers — interior values from the Base parity,
// boundary-ring values shared by both global buffers — and binds the
// kernel, coefficients and source to the local grid.
func (rt *Runtime) buildChare(i, order, nd int) *chare {
	owned := rt.lat.Box(i)
	localDims := make([]int, nd)
	off := make([]int, nd)
	for k := 0; k < nd; k++ {
		localDims[k] = owned.Extent(k) + 2*order
		off[k] = owned.Lo[k] - order
	}
	c := &chare{
		id:    i,
		order: order,
		owned: owned,
		off:   off,
		g:     grid.New(localDims),
	}
	c.ownedLocal = c.g.Interior(order)

	gg := rt.prob.Grid
	src := gg.Buf(rt.prob.Base)
	region := owned.Grow(order) // inside gg.Bounds(): owned ⊆ interior
	d0, d1 := c.g.Buf(0), c.g.Buf(1)
	gg.ForEachRow(region, func(goff, length int, pt []int) {
		li := c.localIndex(pt)
		copy(d0[li:li+length], src[goff:goff+length])
		copy(d1[li:li+length], src[goff:goff+length])
	})

	if rt.prob.Coeffs != nil {
		c.coeffs = stencil.NewCoefficients(rt.prob.Stencil, c.g)
		for p := range c.coeffs.Data {
			gsrc := rt.prob.Coeffs.Data[p]
			ldst := c.coeffs.Data[p]
			// Coefficients are read only at update (owned) cells.
			gg.ForEachRow(owned, func(goff, length int, pt []int) {
				li := c.localIndex(pt)
				copy(ldst[li:li+length], gsrc[goff:goff+length])
			})
		}
		c.op = stencil.NewBandedOp(rt.prob.Stencil, c.g, c.coeffs)
	} else {
		c.op = stencil.NewOp(rt.prob.Stencil, c.g)
	}
	if rt.prob.Source != nil {
		c.src = make([]float64, c.g.Len())
		gg.ForEachRow(owned, func(goff, length int, pt []int) {
			li := c.localIndex(pt)
			copy(c.src[li:li+length], rt.prob.Source[goff:goff+length])
		})
		c.op.SetSource(c.src)
	}

	for k := 0; k < nd; k++ {
		for _, side := range [2]int{-1, +1} {
			if j := rt.lat.Neighbor(i, k, side); j >= 0 {
				c.neighbors = append(c.neighbors, neighborRef{id: j, dim: k, side: side})
			}
		}
	}
	return c
}

// Run advances every chare by timesteps steps and gathers the result
// into the global grid. On error (cancellation, or a panicking
// chare-step, returned as *engine.PanicError) the global grid is left
// exactly as it was — scatter/gather isolation means a failed
// distributed run does not corrupt the solver state.
func (rt *Runtime) Run(ctx context.Context, timesteps int) (Result, error) {
	rt.T = max(timesteps, 0)
	updates := make([]int64, len(rt.busy))
	for t0 := 0; t0 < rt.T; {
		t1 := rt.T
		if rt.opts.LBPeriod > 0 && t0+rt.opts.LBPeriod < rt.T {
			t1 = t0 + rt.opts.LBPeriod
		}
		if err := rt.segment(ctx, t0, t1, updates); err != nil {
			return Result{}, err
		}
		if t1 < rt.T {
			rt.rebalance()
		}
		t0 = t1
	}
	if rt.T > 0 {
		rt.gather()
	}
	res := Result{
		Chares:           len(rt.chares),
		ChareSteps:       int64(len(rt.chares)) * int64(rt.T),
		Workers:          len(rt.busy),
		UpdatesPerWorker: updates,
		BusyPerWorker:    slices.Clone(rt.busy),
		Migrations:       rt.migrations,
		Net:              rt.tr.Stats(),
	}
	for _, n := range updates {
		res.Updates += n
	}
	for r := range rt.ranks {
		res.Net.HaloLatency.Merge(&rt.ranks[r].haloLat)
	}
	res.Net.BarrierWait = rt.barrierWait
	if rt.tc != nil {
		rt.tc.fold(rt.opts.Trace, rt.opts.Ranks)
	}
	return res, nil
}

// segment runs steps [t0, t1) of every chare as engine.Runs of at most
// windowTiles chare-steps each, adding each run's per-worker updates into
// updates, and then drains every rank's mailbox, so that no halo waits at
// a rank whose chare the balancer may move away. A window's first step
// needs no dependency on the previous window: that window's engine.Run
// returned, so every halo the step reads was sent, and its drain finds
// it. Each rank's barrier wait runs from the end of its last chare-step
// to the end of the segment.
func (rt *Runtime) segment(ctx context.Context, t0, t1 int, updates []int64) error {
	rt.sampleResident()
	n := len(rt.chares)
	steps := min(t1-t0, max(1, windowTiles/n))
	tiles, deps := rt.plan(steps)
	start := time.Now()
	for w := range rt.end {
		rt.end[w] = start
	}
	var err error
	for rt.winT0 = t0; rt.winT0 < t1; rt.winT0 += steps {
		k := n * min(steps, t1-rt.winT0)
		var st *engine.Stats
		st, err = engine.Run(tiles[:k], engine.Config{Workers: len(rt.end), Deps: deps[:k], Ctx: ctx, Exec: rt.exec})
		if err != nil {
			break
		}
		for w, u := range st.UpdatesPerWorker {
			updates[w] += u
		}
	}
	segEnd := time.Now()
	wpr := rt.opts.WorkersPerRank
	for r := range rt.ranks {
		rt.drain(r, rt.shard(r*wpr))
	}
	if err != nil {
		return err
	}
	for r := range rt.ranks {
		last := slices.MaxFunc(rt.end[r*wpr:(r+1)*wpr], time.Time.Compare)
		rt.barrierWait.Observe(segEnd.Sub(last))
		if rt.tc != nil && t1 < rt.T {
			rt.tc.instants = append(rt.tc.instants, instantRec{
				name: "AtSync", rank: r, at: last,
				args: map[string]any{"step": t1},
			})
		}
	}
	return nil
}

// plan builds the tiles and dependencies of a window of steps steps;
// a shorter window runs a prefix. Tile t·n + c is chare c's step
// winT0+t. It runs on a worker of the chare's rank, as
// Options.WorkersPerRank deals them, the rank's chares in id order. It
// depends on the chare's and its lattice neighbors' previous step (the
// halos it reads); the window's first step depends on nothing. Every
// edge points one step back, so the graph is acyclic.
func (rt *Runtime) plan(steps int) ([]*spacetime.Tile, [][]int) {
	n, wpr := len(rt.chares), rt.opts.WorkersPerRank
	pos := make([]int, n)
	dealt := make([]int, rt.opts.Ranks)
	for c, r := range rt.chareRank {
		pos[c] = dealt[r]
		dealt[r]++
	}
	backing := make([]spacetime.Tile, n*steps)
	tiles := make([]*spacetime.Tile, len(backing))
	deps := make([][]int, len(backing))
	for i := range backing {
		c, t := i%n, i/n
		r, k := int(rt.chareRank[c]), pos[c]
		if dealt[r]%wpr != 0 {
			k += t
		}
		backing[i] = spacetime.Tile{T0: t, Owner: r*wpr + k%wpr, Node: -1}
		tiles[i] = &backing[i]
		if t > 0 {
			d := append(make([]int, 0, 1+len(rt.chares[c].neighbors)), i-n)
			for _, nb := range rt.chares[c].neighbors {
				d = append(d, i-n-c+nb.id)
			}
			deps[i] = d
		}
	}
	return tiles, deps
}

// exec is the engine's Exec: worker w runs chare-step tile, whose ID is
// its index in plan's order (engine.Run numbers tiles so). It applies
// the halos queued for the chare's rank, steps the chare, and unless the
// step is the last pushes the halos its neighbors' next step reads.
func (rt *Runtime) exec(w int, tile *spacetime.Tile) int64 {
	c, t := rt.chares[tile.ID%len(rt.chares)], rt.winT0+tile.T0
	r := int(rt.chareRank[c.id])
	sh := rt.shard(w)
	rt.drain(r, sh)

	start := time.Now()
	n := c.op.ApplyBox(c.g.Bounds(), t)
	if rt.opts.LoadFunc != nil {
		c.sink += spin(rt.opts.LoadFunc(c.id, t))
	}
	d := time.Since(start)
	c.segBusy += d
	rt.busy[w] += d
	if rt.opts.OnExec != nil {
		rt.opts.OnExec(w, n, d)
	}
	if sh != nil {
		sh.spans = append(sh.spans, spanRec{
			chare: c.id, step: t, rank: r, updates: n, start: start, d: d,
		})
	}
	if t+1 < rt.T {
		rt.push(c, r, t+1, sh)
	}
	rt.end[w] = time.Now()
	return n
}

// push sends chare c's halos for step t to its neighbors. A neighbor on
// c's own rank r gets its ghost slab written directly. That is safe while
// the neighbor runs step t−1: ghost and owned cells are disjoint, and
// step t−1 reads the other parity. Any other neighbor's halo goes through
// the transport to the neighbor's rank.
func (rt *Runtime) push(c *chare, r, t int, sh *workerShard) {
	parity := t & 1
	for _, nb := range c.neighbors {
		data := c.packHalo(nb.dim, nb.side, parity)
		dest := int(rt.chareRank[nb.id])
		if dest == r {
			rt.chares[nb.id].applyHalo(nb.dim, -nb.side, parity, data)
			continue
		}
		sentAt := time.Now()
		if sh != nil {
			sh.flows = append(sh.flows, flowRec{
				destChare: nb.id, dim: nb.dim, side: -nb.side, step: t,
				tid: c.id, rank: r, at: sentAt,
			})
		}
		rt.tr.Send(Msg{
			Kind: HaloMsg, From: r, To: dest,
			Chare: nb.id, Step: t,
			Dim: nb.dim, Side: -nb.side, Data: data,
			SentAt: sentAt,
		})
	}
}

// drain applies every halo queued for rank r, recording into sh (nil
// when untraced). A chare-step drains before it runs, and every halo it
// reads was sent by a step that completed before it became ready, so
// that halo is in the mailbox or already dequeued. The rank's lock,
// held from the first Recv to the last apply, covers the second case: a
// worker that finds the mailbox empty while another worker of the rank
// has dequeued its halo waits here until that halo is applied. A halo
// for a chare that is still running its previous step is applied at once,
// safe for the reason push gives.
func (rt *Runtime) drain(r int, sh *workerShard) {
	rk := &rt.ranks[r]
	rk.mu.Lock()
	defer rk.mu.Unlock()
	for {
		m, ok := rt.tr.Recv(r)
		if !ok {
			return
		}
		if m.Kind != HaloMsg {
			continue
		}
		rt.chares[m.Chare].applyHalo(m.Dim, m.Side, m.Step&1, m.Data)
		now := time.Now()
		if !m.SentAt.IsZero() {
			rk.haloLat.Observe(now.Sub(m.SentAt))
		}
		if sh == nil {
			continue
		}
		sh.finishes = append(sh.finishes, flowRec{
			destChare: m.Chare, dim: m.Dim, side: m.Side, step: m.Step,
			tid: m.Chare, rank: r, at: now,
		})
		if rt.depth != nil {
			msgs, bytes := rt.depth.Depth(r)
			sh.samples = append(sh.samples, depthRec{rank: r, at: now, msgs: msgs, bytes: bytes})
		}
	}
}

// shard returns worker w's trace buffer, nil when untraced.
func (rt *Runtime) shard(w int) *workerShard {
	if rt.tc == nil {
		return nil
	}
	return &rt.tc.shards[w]
}

// sampleResident records one "chares resident" sample per rank from the
// current ownership map. Called only from the Run loop at quiesced
// segment boundaries.
func (rt *Runtime) sampleResident() {
	if rt.tc == nil {
		return
	}
	now := time.Now()
	counts := make([]int, rt.opts.Ranks)
	for _, rk := range rt.chareRank {
		counts[rk]++
	}
	for i, n := range counts {
		rt.tc.resident = append(rt.tc.resident, residentRec{rank: i, at: now, n: n})
	}
}

// gather copies every chare's owned cells from its final local buffer
// into the global buffer of the final parity. The global boundary ring
// is never written: both global buffers keep their (identical,
// invariant) boundary values, exactly as a single-process run would.
func (rt *Runtime) gather() {
	gg := rt.prob.Grid
	dst := gg.Buf(rt.prob.Base + rt.T)
	for _, c := range rt.chares {
		src := c.g.Buf(rt.T)
		gg.ForEachRow(c.owned, func(goff, length int, pt []int) {
			li := c.localIndex(pt)
			copy(dst[goff:goff+length], src[li:li+length])
		})
	}
}

// rebalance runs the balancer on the last segment's measured per-chare
// execution times and applies its moves, accounting each migrated
// chare's state bytes to the transport. Runs only at segment barriers,
// when every rank is quiesced and no message is in flight.
func (rt *Runtime) rebalance() {
	load := make([]float64, len(rt.chares))
	cur := make([]int, len(rt.chares))
	for i, c := range rt.chares {
		load[i] = float64(c.segBusy) + 1 // epsilon: unmeasurably fast chares still have mass
		c.segBusy = 0
		cur[i] = int(rt.chareRank[i])
	}
	bal := rt.opts.Balancer
	if bal == nil {
		bal = &GreedyBalancer{}
	}
	for _, mv := range bal.Rebalance(load, cur, rt.opts.Ranks) {
		if mv.Chare < 0 || mv.Chare >= len(rt.chares) || mv.To < 0 || mv.To >= rt.opts.Ranks {
			continue
		}
		from := int(rt.chareRank[mv.Chare])
		if from == mv.To {
			continue
		}
		bytes := rt.chares[mv.Chare].stateBytes()
		rt.tr.CountMigration(from, mv.To, bytes)
		if rt.tc != nil {
			rt.tc.instants = append(rt.tc.instants, instantRec{
				name: fmt.Sprintf("migrate chare %d", mv.Chare),
				rank: from, tid: mv.Chare, at: time.Now(),
				args: map[string]any{"from": from, "to": mv.To, "bytes": bytes},
			})
		}
		rt.chareRank[mv.Chare] = int32(mv.To)
		rt.migrations++
	}
}

// spin is LoadFunc's unit of synthetic work.
func spin(n int) float64 {
	x := 1.0
	for i := 0; i < n; i++ {
		x += 1e-9 * float64(i&15)
	}
	return x
}
