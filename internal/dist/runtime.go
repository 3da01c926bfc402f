package dist

import (
	"context"
	"errors"
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
// coefficients and source term. New scatters it into per-chare grids and
// a successful Run gathers the result back, each chare filled and
// drained on a worker of its own rank, so a failed run leaves the global
// grid untouched.
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
	// processes (pid rank+1), per-chare threads and spans (tid chare id),
	// halo flow arrows, migration/AtSync instants, and per-rank counter
	// tracks. It must have one shard per worker (Ranks × WorkersPerRank):
	// each worker appends to its own shard as it runs, the Run loop to
	// shard 0 between engine.Runs. Nil adds no work to the hot path.
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
	// Net is the transport's inter-rank traffic and chare migrations.
	Net Stats
}

// face is a chare's side toward one lattice neighbor: the neighbor nb
// along dim on side (-1 low, +1 high), the rows of the send slab (the
// owned cells, order thick, that nb reads) and of the ghost slab (where
// nb's halo lands), as flat offsets in the chare grid of rows n cells
// long. A chare's send slab and its neighbor's facing ghost slab have one
// shape, so their rows pair up in order, and a payload is the send slab's
// rows back to back.
type face struct {
	nb, dim, side int
	send, ghost   []int
	n             int
	// buf holds the face's cross-rank payload of each parity, allocated at
	// its first send and reused for the rest of the run (see Transport).
	buf [2][]float64
}

// pack copies the send slab of src into the face's payload buffer of
// parity p and returns the buffer.
func (f *face) pack(src []float64, p int) []float64 {
	if f.buf[p] == nil {
		f.buf[p] = make([]float64, len(f.send)*f.n)
	}
	out := f.buf[p]
	for i, off := range f.send {
		copy(out[i*f.n:], src[off:off+f.n])
	}
	return out
}

// unpack copies a payload into the ghost slab of dst.
func (f *face) unpack(dst, data []float64) {
	for i, off := range f.ghost {
		copy(dst[off:off+f.n], data[i*f.n:])
	}
}

// copyTo copies the send slab of src straight into the ghost slab of dst
// behind the neighbor's facing face to, with no payload in between.
func (f *face) copyTo(src, dst []float64, to *face) {
	for i, off := range f.send {
		copy(dst[to.ghost[i]:to.ghost[i]+f.n], src[off:off+f.n])
	}
}

// faceSlot is the index in chare.faces of the face along dim on side;
// slot^1 is the opposite face, the one a neighbor's face points back to.
func faceSlot(dim, side int) int { return 2*dim + (side+1)/2 }

// chare is one block of the overdecomposed grid: a private grid of the
// owned box plus a ghost ring of width order, the stencil kernel bound
// to it, and its faces.
type chare struct {
	id         int
	owned      grid.Box // global coordinates
	off        []int    // global coordinate of the local origin (owned.Lo − order)
	ownedLocal grid.Box // owned box in local coordinates
	g          *grid.Grid
	op         *stencil.Op
	coeffs     *stencil.Coefficients
	src        []float64
	// faces holds each face at its faceSlot; nb is -1 where the lattice
	// ends.
	faces   []face
	worker  int           // the worker that ran the chare's latest step
	segBusy time.Duration // execution time since the last balance point
	sink    float64       // keeps LoadFunc spins observable
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

// newFace builds the chare's face toward neighbor nb along dim on side
// for a stencil of the given order.
func (c *chare) newFace(nb, dim, side, order int) face {
	send, ghost := c.ownedLocal.Clone(), c.ownedLocal.Clone()
	if side < 0 {
		send.Hi[dim] = send.Lo[dim] + order
		ghost.Hi[dim] = ghost.Lo[dim]
		ghost.Lo[dim] -= order
	} else {
		send.Lo[dim] = send.Hi[dim] - order
		ghost.Lo[dim] = ghost.Hi[dim]
		ghost.Hi[dim] += order
	}
	rows := func(b grid.Box) []int {
		var offs []int
		c.g.ForEachRow(b, func(off, _ int, _ []int) { offs = append(offs, off) })
		return offs
	}
	return face{nb: nb, dim: dim, side: side, send: rows(send), ghost: rows(ghost), n: send.Extent(len(send.Lo) - 1)}
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
// the tiles, migration at the barriers. A Runtime is single-use: its
// chares hold the state of one run, so a second Run is an error.
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

	T   int
	ran bool // Run has been called
	// winT0 is the first step of the engine.Run in flight, written only
	// between runs.
	winT0 int

	// barrierWait is written only by the Run loop.
	barrierWait histo.Hist
}

// New scatters the problem into chares and builds the rank runtimes.
// The scatter is one engine.Run of one tile per chare, run by the worker
// that runs the chare's first step, so each rank fills its own chares,
// in parallel, on the thread that computes them; a panic there returns
// as *engine.PanicError. The global grid is only read here; it is not
// written until a successful Run gathers the result back.
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
	if opts.Trace != nil && opts.Trace.Workers() != workers {
		return nil, fmt.Errorf("dist: trace has %d worker shards, the run %d workers", opts.Trace.Workers(), workers)
	}
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
	n := rt.lat.NumChares()
	rt.chares = make([]*chare, n)
	rt.chareRank = make([]int32, n)
	for i := range rt.chareRank {
		rt.chareRank[i] = int32(InitialRank(i, n, opts.Ranks))
	}
	first := rt.deal()
	err := engine.Each(n, workers, false, func(c int) int { return first(c, 0) }, func(c int) {
		rt.chares[c] = rt.buildChare(c)
	})
	if err != nil {
		return nil, fmt.Errorf("dist: scatter: %w", err)
	}
	if tr := opts.Trace; tr != nil {
		for r := 0; r < opts.Ranks; r++ {
			tr.SetProcessName(r+1, fmt.Sprintf("rank %d", r))
		}
		for c, r := range rt.chareRank {
			tr.SetThreadName(int(r)+1, c, fmt.Sprintf("chare %d", c))
		}
	}
	return rt, nil
}

// buildChare allocates chare i's private grid (owned extent plus a
// ghost ring of width order per side) and fills it from the Base parity
// of the global grid: buffer 0 with the whole region, buffer 1 with only
// the region's cells on the global boundary ring, which no step writes.
// Every other buffer-1 cell is written before step 1 reads it: the owned
// cells by step 0, the face ghosts by the halos step 0 pushes; the ghost
// ring's corners are never read by a star. It then binds the kernel,
// coefficients and source to the local grid and builds the faces.
func (rt *Runtime) buildChare(i int) *chare {
	gg := rt.prob.Grid
	order, nd := rt.prob.Stencil.Order, gg.NumDims()
	owned := rt.lat.Box(i)
	localDims := make([]int, nd)
	off := make([]int, nd)
	for k := 0; k < nd; k++ {
		localDims[k] = owned.Extent(k) + 2*order
		off[k] = owned.Lo[k] - order
	}
	c := &chare{
		id:    i,
		owned: owned,
		off:   off,
		g:     grid.New(localDims),
	}
	c.ownedLocal = c.g.Interior(order)

	// One pass over the region's rows: each goes whole into buffer 0, and
	// into buffer 1 whole if a leading coordinate is off the interior,
	// else only its ends beyond the interior (head and tail cells).
	src := gg.Buf(rt.prob.Base)
	d0, d1 := c.g.Buf(0), c.g.Buf(1)
	region := owned.Grow(order) // inside gg.Bounds(): owned ⊆ interior
	interior := gg.Interior(order)
	last := nd - 1
	head := max(interior.Lo[last]-region.Lo[last], 0)
	tail := max(region.Hi[last]-interior.Hi[last], 0)
	gg.ForEachRow(region, func(goff, length int, pt []int) {
		li := c.localIndex(pt)
		copy(d0[li:li+length], src[goff:goff+length])
		for k := 0; k < last; k++ {
			if pt[k] < interior.Lo[k] || pt[k] >= interior.Hi[k] {
				copy(d1[li:li+length], src[goff:goff+length])
				return
			}
		}
		copy(d1[li:li+head], src[goff:goff+head])
		copy(d1[li+length-tail:li+length], src[goff+length-tail:goff+length])
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

	c.faces = make([]face, 2*nd)
	for k := 0; k < nd; k++ {
		for _, side := range [2]int{-1, +1} {
			f := &c.faces[faceSlot(k, side)]
			f.nb = rt.lat.Neighbor(i, k, side)
			if f.nb >= 0 {
				*f = c.newFace(f.nb, k, side, order)
			}
		}
	}
	return c
}

// Run advances every chare by timesteps steps and gathers the result
// into the global grid. On error (cancellation, or a panicking
// chare-step, returned as *engine.PanicError) the global grid is left
// exactly as it was — scatter/gather isolation means a failed
// distributed run does not corrupt the solver state. The gather starts
// only once every step has succeeded; like the scatter, it is one
// engine.Run of one tile per chare, run by the worker that ran the
// chare's last step. A Runtime runs once: a second call returns an
// error and changes nothing.
func (rt *Runtime) Run(ctx context.Context, timesteps int) (Result, error) {
	if rt.ran {
		return Result{}, errors.New("dist: Run called twice; a Runtime runs once")
	}
	rt.ran = true
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
		if err := rt.gather(); err != nil {
			return Result{}, err
		}
	}
	res := Result{
		Chares:           len(rt.chares),
		ChareSteps:       int64(len(rt.chares)) * int64(rt.T),
		Workers:          len(rt.busy),
		UpdatesPerWorker: updates,
		BusyPerWorker:    slices.Clone(rt.busy),
		Net:              rt.tr.Stats(),
	}
	for _, n := range updates {
		res.Updates += n
	}
	for r := range rt.ranks {
		res.Net.HaloLatency.Merge(&rt.ranks[r].haloLat)
	}
	res.Net.BarrierWait = rt.barrierWait
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
		rt.drain(r, 0)
	}
	if err != nil {
		return err
	}
	for r := range rt.ranks {
		last := slices.MaxFunc(rt.end[r*wpr:(r+1)*wpr], time.Time.Compare)
		rt.barrierWait.Observe(segEnd.Sub(last))
		if tr := rt.opts.Trace; tr != nil && t1 < rt.T {
			tr.AddInstant(0, "AtSync", r+1, 0, last, map[string]any{"step": t1})
		}
	}
	return nil
}

// deal returns the worker that runs chare c's step t of a window under
// the current ownership map, as Options.WorkersPerRank deals them: a
// rank's chares in id order round-robin over its workers, the deal
// shifting by one worker per step on a rank whose chare count is not a
// multiple of WorkersPerRank.
func (rt *Runtime) deal() func(c, t int) int {
	wpr := rt.opts.WorkersPerRank
	pos := make([]int, len(rt.chareRank))
	dealt := make([]int, rt.opts.Ranks)
	for c, r := range rt.chareRank {
		pos[c] = dealt[r]
		dealt[r]++
	}
	return func(c, t int) int {
		r, k := int(rt.chareRank[c]), pos[c]
		if dealt[r]%wpr != 0 {
			k += t
		}
		return r*wpr + k%wpr
	}
}

// plan builds the tiles and dependencies of a window of steps steps;
// a shorter window runs a prefix. Tile t·n + c is chare c's step
// winT0+t, run by the worker deal names. It depends on the chare's and
// its lattice neighbors' previous step (the halos it reads); the
// window's first step depends on nothing. Every edge points one step
// back, so the graph is acyclic.
func (rt *Runtime) plan(steps int) ([]*spacetime.Tile, [][]int) {
	n := len(rt.chares)
	owner := rt.deal()
	backing := make([]spacetime.Tile, n*steps)
	tiles := make([]*spacetime.Tile, len(backing))
	deps := make([][]int, len(backing))
	for i := range backing {
		c, t := i%n, i/n
		backing[i] = spacetime.Tile{T0: t, Owner: owner(c, t), Node: -1}
		tiles[i] = &backing[i]
		if t > 0 {
			faces := rt.chares[c].faces
			d := append(make([]int, 0, 1+len(faces)), i-n)
			for _, f := range faces {
				if f.nb >= 0 {
					d = append(d, i-n-c+f.nb)
				}
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
	rt.drain(r, w)

	start := time.Now()
	n := c.op.ApplyBox(c.ownedLocal, t)
	if rt.opts.LoadFunc != nil {
		c.sink += spin(rt.opts.LoadFunc(c.id, t))
	}
	d := time.Since(start)
	c.segBusy += d
	rt.busy[w] += d
	if rt.opts.OnExec != nil {
		rt.opts.OnExec(w, n, d)
	}
	if tr := rt.opts.Trace; tr != nil {
		tr.Record(w, trace.Event{
			Pid: r + 1, Tid: c.id, Name: fmt.Sprintf("chare %d step %d", c.id, t),
			TileID: c.id, T0: t, T1: t + 1, Updates: n,
		}, start, start.Add(d))
	}
	if t+1 < rt.T {
		rt.push(w, c, r, t+1)
	}
	c.worker = w
	rt.end[w] = time.Now()
	return n
}

// push sends chare c's halos for step t to its neighbors. A neighbor on
// c's own rank r gets its ghost slab copied straight from c's send slab.
// That is safe while the neighbor runs step t−1: ghost and owned cells
// are disjoint, and step t−1 reads the other parity. Any other neighbor's
// halo is packed into the face's payload buffer of t's parity and goes
// through the transport to the neighbor's rank. Worker w records the
// send end of its flow arrow.
func (rt *Runtime) push(w int, c *chare, r, t int) {
	parity := t & 1
	src := c.g.Buf(parity)
	for i := range c.faces {
		f := &c.faces[i]
		if f.nb < 0 {
			continue
		}
		dest := int(rt.chareRank[f.nb])
		if dest == r {
			nb := rt.chares[f.nb]
			f.copyTo(src, nb.g.Buf(parity), &nb.faces[i^1])
			continue
		}
		data := f.pack(src, parity)
		sentAt := time.Now()
		if tr := rt.opts.Trace; tr != nil {
			id, name := rt.haloFlow(f.nb, f.dim, -f.side, t)
			tr.FlowStart(w, id, name, r+1, c.id, sentAt)
		}
		rt.tr.Send(Msg{
			To: dest, Chare: f.nb, Step: t,
			Dim: f.dim, Side: -f.side, Data: data,
			SentAt: sentAt,
		})
	}
}

// drain applies every halo queued for rank r, recording its flow
// finishes and mailbox samples on worker w's trace shard. A chare-step
// drains before it runs, and every halo it reads was sent by a step that
// completed before it became ready, so that halo is in the mailbox or
// already dequeued. The rank's lock, held from the first Recv to the last
// apply, covers the second case: a worker that finds the mailbox empty
// while another worker of the rank has dequeued its halo waits here until
// that halo is applied. A halo for a chare that is still running its
// previous step is applied at once, safe for the reason push gives.
func (rt *Runtime) drain(r, w int) {
	rk := &rt.ranks[r]
	rk.mu.Lock()
	defer rk.mu.Unlock()
	for {
		m, ok := rt.tr.Recv(r)
		if !ok {
			return
		}
		c := rt.chares[m.Chare]
		c.faces[faceSlot(m.Dim, m.Side)].unpack(c.g.Buf(m.Step), m.Data)
		now := time.Now()
		if !m.SentAt.IsZero() {
			rk.haloLat.Observe(now.Sub(m.SentAt))
		}
		tr := rt.opts.Trace
		if tr == nil {
			continue
		}
		id, name := rt.haloFlow(m.Chare, m.Dim, m.Side, m.Step)
		tr.FlowFinish(w, id, name, r+1, m.Chare, now)
		if rt.depth != nil {
			msgs, bytes := rt.depth.Depth(r)
			tr.AddCounter(w, r+1, "mailbox depth", now, float64(msgs))
			tr.AddCounter(w, r+1, "halo bytes in flight", now, float64(bytes))
		}
	}
}

// haloFlow names the flow arrow of the halo for chare dest's ghost face
// (dim, side) that step t reads. Each (t, dest, dim, side) names at most
// one message per run, so the id pairs its send and receive exactly.
func (rt *Runtime) haloFlow(dest, dim, side, t int) (id uint64, name string) {
	sideBit := 0
	if side > 0 {
		sideBit = 1
	}
	id = uint64((((t*len(rt.chares))+dest)*rt.prob.Grid.NumDims()+dim)*2 + sideBit)
	return id, fmt.Sprintf("halo→c%d d%d t%d", dest, dim, t)
}

// sampleResident records one "chares resident" sample per rank from the
// current ownership map. Called only from the Run loop at quiesced
// segment boundaries.
func (rt *Runtime) sampleResident() {
	tr := rt.opts.Trace
	if tr == nil {
		return
	}
	now := time.Now()
	counts := make([]int, rt.opts.Ranks)
	for _, rk := range rt.chareRank {
		counts[rk]++
	}
	for i, n := range counts {
		tr.AddCounter(0, i+1, "chares resident", now, float64(n))
	}
}

// gather copies every chare's owned cells from its final local buffer
// into the global buffer of the final parity, each chare on the worker
// that ran its last step (engine.Each). The global boundary ring is never
// written: both global buffers keep their (identical, invariant)
// boundary values, exactly as a single-process run would.
func (rt *Runtime) gather() error {
	gg := rt.prob.Grid
	dst := gg.Buf(rt.prob.Base + rt.T)
	return engine.Each(len(rt.chares), len(rt.busy), false, func(c int) int { return rt.chares[c].worker }, func(i int) {
		c := rt.chares[i]
		src := c.g.Buf(rt.T)
		gg.ForEachRow(c.owned, func(goff, length int, pt []int) {
			li := c.localIndex(pt)
			copy(dst[goff:goff+length], src[li:li+length])
		})
	})
}

// rebalance runs the balancer on the last segment's measured per-chare
// execution times and applies its moves, accounting each migrated
// chare's state bytes to the transport and naming the chare's thread on
// its new rank in the trace. Runs only at segment barriers, when every
// rank is quiesced and no message is in flight.
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
		if tr := rt.opts.Trace; tr != nil {
			tr.AddInstant(0, fmt.Sprintf("migrate chare %d", mv.Chare), from+1, mv.Chare, time.Now(),
				map[string]any{"from": from, "to": mv.To, "bytes": bytes})
			tr.SetThreadName(mv.To+1, mv.Chare, fmt.Sprintf("chare %d", mv.Chare))
		}
		rt.chareRank[mv.Chare] = int32(mv.To)
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
