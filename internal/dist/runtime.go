package dist

import (
	"context"
	"fmt"
	"sync"
	"time"

	"nustencil/internal/grid"
	"nustencil/internal/histo"
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
	// WorkersPerRank is each rank's worker-pool size (default 1).
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
	// OnExec observes every chare-step execution with the global worker
	// index (rank·WorkersPerRank + local worker) — the counter layer's
	// hook. Called from worker goroutines, one index never concurrently.
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

// Chare execution states, guarded by the owning rank's lock.
const (
	stWaiting uint8 = iota // not ready: halo arrivals outstanding
	stQueued               // in the rank's ready queue
	stRunning              // claimed by a worker
)

// chare is one block of the overdecomposed grid: a private grid of the
// owned box plus a ghost ring of width order, the stencil kernel bound
// to it, and the halo-dependency scheduling state.
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
	need       int // halo arrivals required per step (= len(neighbors))

	// Scheduling state. got[p] counts arrivals for the pending step of
	// parity p; the ≤1-step neighbor skew of the halo protocol keeps the
	// two parity slots from ever colliding.
	step    int
	got     [2]int
	state   uint8
	doneSeg bool
	segBusy time.Duration // execution time since the last balance point
	updates int64
	sink    float64 // keeps LoadFunc spins observable
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

// rank is one simulated node: a worker pool draining a ready queue of
// chares whose halo dependencies are satisfied.
type rank struct {
	id int
	rt *Runtime

	mu     sync.Mutex
	cond   *sync.Cond
	ready  []*chare
	owned  int // chares owned this segment
	done   int // owned chares that reached the segment end, halos in
	segEnd int
	err    error

	busy    []time.Duration // per local worker
	updates []int64

	// haloLat is written only by the rank's recvLoop; segDone is stamped
	// by the rank's runSegment goroutine and read by the Run loop after
	// the barrier (ordered by the segment WaitGroup).
	haloLat histo.Hist
	segDone time.Time
}

// Runtime executes one distributed run: chares spread over ranks,
// advancing in lock-step segments with halo exchange, migration at the
// segment barriers.
type Runtime struct {
	prob Problem
	opts Options
	tr   Transport
	lat  Lattice

	chares []*chare
	// chareRank maps chare → owning rank. Written only at barriers
	// (quiesced), read freely during segments.
	chareRank []int32
	ranks     []*rank

	T          int
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
	rt := &Runtime{
		prob: prob,
		opts: opts,
		lat:  MakeLattice(interior, opts.Ranks*opts.ChareFactor),
	}
	rt.tr = opts.Transport
	if rt.tr == nil {
		rt.tr = NewLocalTransport(opts.Ranks)
	}
	nd := prob.Grid.NumDims()
	n := rt.lat.NumChares()
	rt.chares = make([]*chare, n)
	rt.chareRank = make([]int32, n)
	for i := 0; i < n; i++ {
		rt.chares[i] = rt.buildChare(i, order, nd)
		rt.chareRank[i] = int32(InitialRank(i, n, opts.Ranks))
	}
	rt.ranks = make([]*rank, opts.Ranks)
	for i := range rt.ranks {
		r := &rank{
			id:      i,
			rt:      rt,
			busy:    make([]time.Duration, opts.WorkersPerRank),
			updates: make([]int64, opts.WorkersPerRank),
		}
		r.cond = sync.NewCond(&r.mu)
		rt.ranks[i] = r
	}
	if opts.Trace != nil {
		rt.tc = newTracer(n, nd, opts.Ranks*opts.WorkersPerRank, opts.Ranks)
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
	c.need = len(c.neighbors)
	c.got[0] = c.need // step 0 reads the scattered state: pre-credited
	return c
}

// Run advances every chare by timesteps steps and gathers the result
// into the global grid. On error (cancellation) the global grid is left
// exactly as it was — scatter/gather isolation means a failed
// distributed run does not corrupt the solver state.
func (rt *Runtime) Run(ctx context.Context, timesteps int) (Result, error) {
	rt.T = timesteps
	res := Result{
		Chares:           len(rt.chares),
		Workers:          rt.opts.Ranks * rt.opts.WorkersPerRank,
		UpdatesPerWorker: make([]int64, rt.opts.Ranks*rt.opts.WorkersPerRank),
		BusyPerWorker:    make([]time.Duration, rt.opts.Ranks*rt.opts.WorkersPerRank),
	}
	if timesteps <= 0 {
		res.Net = rt.tr.Stats()
		return res, nil
	}
	// An already-cancelled context refuses the run here, as the engine
	// does: the watcher below may be scheduled only after a short run has
	// finished.
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
	}

	var recvWG sync.WaitGroup
	for _, r := range rt.ranks {
		recvWG.Add(1)
		go func(r *rank) {
			defer recvWG.Done()
			r.recvLoop()
		}(r)
	}
	if ctx != nil {
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-ctx.Done():
				rt.failAll(ctx.Err())
			case <-stop:
			}
		}()
	}

	var runErr error
	for t := 0; t < rt.T && runErr == nil; {
		t1 := rt.T
		if rt.opts.LBPeriod > 0 && t+rt.opts.LBPeriod < rt.T {
			t1 = t + rt.opts.LBPeriod
		}
		rt.sampleResident()
		var wg sync.WaitGroup
		for _, r := range rt.ranks {
			wg.Add(1)
			go func(r *rank) {
				defer wg.Done()
				r.runSegment(t1)
			}(r)
		}
		wg.Wait()
		barrierEnd := time.Now()
		for _, r := range rt.ranks {
			if !r.segDone.IsZero() {
				rt.barrierWait.Observe(barrierEnd.Sub(r.segDone))
			}
		}
		runErr = rt.firstErr()
		if runErr == nil && t1 < rt.T {
			if rt.tc != nil {
				for _, r := range rt.ranks {
					rt.tc.instants = append(rt.tc.instants, instantRec{
						name: "AtSync", rank: r.id, at: r.segDone,
						args: map[string]any{"step": t1},
					})
				}
			}
			rt.rebalance()
		}
		t = t1
	}
	rt.tr.Close()
	recvWG.Wait()
	if runErr != nil {
		return Result{}, runErr
	}

	rt.gather()
	for _, r := range rt.ranks {
		base := r.id * rt.opts.WorkersPerRank
		for lw := 0; lw < rt.opts.WorkersPerRank; lw++ {
			res.UpdatesPerWorker[base+lw] = r.updates[lw]
			res.BusyPerWorker[base+lw] = r.busy[lw]
			res.Updates += r.updates[lw]
		}
	}
	res.ChareSteps = int64(len(rt.chares)) * int64(rt.T)
	res.Migrations = rt.migrations
	res.Net = rt.tr.Stats()
	for _, r := range rt.ranks {
		res.Net.HaloLatency.Merge(&r.haloLat)
	}
	res.Net.BarrierWait = rt.barrierWait
	if rt.tc != nil {
		rt.tc.fold(rt.opts.Trace, rt.opts.Ranks, rt.opts.WorkersPerRank)
	}
	return res, nil
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

func (rt *Runtime) failAll(err error) {
	for _, r := range rt.ranks {
		r.mu.Lock()
		if r.err == nil {
			r.err = err
		}
		r.cond.Broadcast()
		r.mu.Unlock()
	}
}

func (rt *Runtime) firstErr() error {
	for _, r := range rt.ranks {
		r.mu.Lock()
		err := r.err
		r.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// runSegment advances the rank's owned chares to step t1, returning
// when every owned chare has executed up to t1 and — unless t1 is the
// final step — received all of its next-step halos, so that no message
// destined for this rank is in flight at the barrier (the quiescence
// migration relies on).
func (r *rank) runSegment(t1 int) {
	rt := r.rt
	r.mu.Lock()
	r.segEnd = t1
	r.done = 0
	r.owned = 0
	r.ready = r.ready[:0]
	for _, c := range rt.chares {
		if int(rt.chareRank[c.id]) != r.id {
			continue
		}
		r.owned++
		c.doneSeg = false
		if c.got[c.step&1] == c.need {
			c.state = stQueued
			r.ready = append(r.ready, c)
		} else {
			c.state = stWaiting
		}
	}
	owned := r.owned
	r.mu.Unlock()
	if owned == 0 {
		r.segDone = time.Now()
		return
	}
	var wg sync.WaitGroup
	for lw := 0; lw < rt.opts.WorkersPerRank; lw++ {
		wg.Add(1)
		go func(lw int) {
			defer wg.Done()
			r.worker(lw)
		}(lw)
	}
	wg.Wait()
	r.segDone = time.Now()
}

// worker drains the ready queue: execute a chare's pending step, push
// the halos the neighbors' next step reads, and re-evaluate readiness.
func (r *rank) worker(lw int) {
	rt := r.rt
	var tsh *workerShard // this worker's private trace buffer, nil when untraced
	if rt.tc != nil {
		tsh = &rt.tc.shards[r.id*rt.opts.WorkersPerRank+lw]
	}
	for {
		r.mu.Lock()
		for len(r.ready) == 0 && r.done < r.owned && r.err == nil {
			r.cond.Wait()
		}
		if r.err != nil || r.done >= r.owned {
			r.mu.Unlock()
			return
		}
		c := r.ready[len(r.ready)-1]
		r.ready = r.ready[:len(r.ready)-1]
		c.state = stRunning
		t := c.step
		r.mu.Unlock()

		start := time.Now()
		n := c.op.ApplyBox(c.g.Bounds(), t)
		if rt.opts.LoadFunc != nil {
			c.sink += spin(rt.opts.LoadFunc(c.id, t))
		}
		d := time.Since(start)
		c.segBusy += d
		c.updates += n
		r.busy[lw] += d
		r.updates[lw] += n
		if rt.opts.OnExec != nil {
			rt.opts.OnExec(r.id*rt.opts.WorkersPerRank+lw, n, d)
		}
		if tsh != nil {
			tsh.spans = append(tsh.spans, spanRec{
				chare: c.id, step: t, rank: r.id, updates: n, start: start, d: d,
			})
		}

		// Advance and recycle the arrival slot for step t+2 BEFORE
		// pushing t+1 halos: a neighbor unblocked by our push could send
		// its t+2 halo back immediately, and that arrival must land
		// after the reset.
		r.mu.Lock()
		c.got[t&1] = 0
		c.step = t + 1
		r.mu.Unlock()

		if t+1 < rt.T {
			parity := (t + 1) & 1
			for _, nb := range c.neighbors {
				data := c.packHalo(nb.dim, nb.side, parity)
				dest := int(rt.chareRank[nb.id])
				if dest == r.id {
					// Same rank: apply directly. Safe while the peer
					// executes — ghost and owned cells are disjoint,
					// and the peer cannot be past step t (it needs
					// this halo for t+1).
					peer := rt.chares[nb.id]
					peer.applyHalo(nb.dim, -nb.side, parity, data)
					r.arrive(peer, t+1)
				} else {
					sentAt := time.Now()
					if tsh != nil {
						tsh.flows = append(tsh.flows, flowRec{
							destChare: nb.id, dim: nb.dim, side: -nb.side, step: t + 1,
							tid: c.id, rank: r.id, at: sentAt,
						})
					}
					rt.tr.Send(Msg{
						Kind: HaloMsg, From: r.id, To: dest,
						Chare: nb.id, Step: t + 1,
						Dim: nb.dim, Side: -nb.side, Data: data,
						SentAt: sentAt,
					})
				}
			}
		}

		r.mu.Lock()
		if c.step >= r.segEnd {
			c.state = stWaiting
			if !c.doneSeg && (r.segEnd >= rt.T || c.got[r.segEnd&1] == c.need) {
				c.doneSeg = true
				r.done++
				if r.done >= r.owned {
					r.cond.Broadcast()
				}
			}
		} else if c.got[c.step&1] == c.need {
			c.state = stQueued
			r.ready = append(r.ready, c)
			r.cond.Signal()
		} else {
			c.state = stWaiting
		}
		r.mu.Unlock()
	}
}

// arrive counts one halo arrival for (c, step) and wakes the chare (or
// completes the segment) if that was the last outstanding dependency.
func (r *rank) arrive(c *chare, step int) {
	r.mu.Lock()
	c.got[step&1]++
	if c.state == stWaiting && c.step == step && c.got[step&1] == c.need {
		if step < r.segEnd {
			c.state = stQueued
			r.ready = append(r.ready, c)
			r.cond.Signal()
		} else if !c.doneSeg {
			// The chare already executed to the barrier; this arrival
			// was its last outstanding next-segment halo.
			c.doneSeg = true
			r.done++
			if r.done >= r.owned {
				r.cond.Broadcast()
			}
		}
	}
	r.mu.Unlock()
}

// recvLoop applies inbound halos for the rank's chares. It runs for the
// whole Run (across segments); message routing follows chareRank, which
// only changes at quiesced barriers, so every delivery targets a chare
// this rank currently owns.
func (r *rank) recvLoop() {
	rt := r.rt
	depth, _ := rt.tr.(DepthReporter)
	for {
		m, ok := rt.tr.Recv(r.id)
		if !ok {
			return
		}
		if m.Kind != HaloMsg {
			continue
		}
		c := rt.chares[m.Chare]
		c.applyHalo(m.Dim, m.Side, m.Step&1, m.Data)
		if !m.SentAt.IsZero() {
			r.haloLat.Observe(time.Since(m.SentAt))
		}
		if rt.tc != nil {
			now := time.Now()
			rs := &rt.tc.recv[r.id]
			rs.finishes = append(rs.finishes, flowRec{
				destChare: m.Chare, dim: m.Dim, side: m.Side, step: m.Step,
				tid: m.Chare, rank: r.id, at: now,
			})
			if depth != nil {
				msgs, bytes := depth.Depth(r.id)
				rs.samples = append(rs.samples, depthRec{at: now, msgs: msgs, bytes: bytes})
			}
		}
		r.arrive(c, m.Step)
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
