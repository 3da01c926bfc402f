package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"nustencil/internal/affinity"
	"nustencil/internal/spacetime"
	"nustencil/internal/xsync"
)

// Exec executes one tile on behalf of worker w and returns the number of
// point updates performed. The engine guarantees that all tiles the tile
// flow-depends on have completed (with a happens-before edge), and that no
// two tiles run concurrently unless the geometry allows it.
type Exec func(w int, tile *spacetime.Tile) int64

// Config controls a Run.
type Config struct {
	// Workers is the number of worker goroutines ("threads" in the paper's
	// terms). Each worker w is the virtual core w.
	Workers int
	// Order is the stencil order s, used to derive dependencies.
	Order int
	// Wrap, when non-nil, gives the per-dimension domain extents of a
	// periodic torus: dependencies wrap across the seams.
	Wrap []int
	// Deps, when non-nil, is the precomputed dependency graph for the tiles
	// (as returned by BuildDeps after spacetime.AssignIDs): Deps[i] lists the
	// tile indices tile i flow-depends on. It must have passed CheckDeps, and
	// CheckStatic for RunStatic: the executors trust it and do not look for
	// cycles while running. Callers that execute the same tiling repeatedly
	// derive and check it once and skip the per-Run derivation; when nil,
	// Run and RunStatic derive it from Order and Wrap and check it
	// themselves.
	Deps [][]int
	// Pin locks each worker goroutine to an OS thread and best-effort pins
	// it to CPU w (Linux). Purely an optimization for real runs.
	Pin bool
	// Scheme, when non-empty, names the tiling scheme for observability:
	// workers run under runtime/pprof labels (scheme=<Scheme>, worker=<w>)
	// so CPU profiles attribute samples per scheme and per worker. Labels
	// are applied once at worker startup — the per-tile hot path is
	// unaffected.
	Scheme string
	// Ctx, when non-nil, bounds the run: once it is cancelled or its
	// deadline passes, workers stop claiming tiles (parked workers are
	// woken by an Unpark broadcast) and the run returns Ctx.Err(). A worker
	// already inside Exec finishes its current tile first, so the
	// cancellation delay is bounded by one tile execution. Nil disables
	// cancellation at no cost: the per-tile check is the same single atomic
	// status load either way.
	Ctx context.Context
	// SampleEvery, when positive and OnSample is set, starts one sampler
	// goroutine that observes the scheduler at this period for the length
	// of the run. The sampler reads only atomics the scheduler already
	// maintains, so the per-tile hot path is unaffected.
	SampleEvery time.Duration
	// OnSample receives the periodic scheduler samples. It runs on the
	// sampler goroutine; the last call happens-before Run returns, so the
	// callback may fill an unsynchronized buffer the caller reads after
	// the run.
	OnSample func(Sample)
	// Exec runs a tile. Required. A panic inside Exec is recovered,
	// converted to a *PanicError, and cancels the remaining workers.
	Exec Exec
}

// SchedCounters are one worker's scheduler event counts for a Run. Workers
// accumulate them in local variables and fold them into Stats once at exit,
// so the counters add no atomics to the per-tile hot path.
type SchedCounters struct {
	// Parks counts the times the worker parked after finding no ready tile.
	Parks int64
	// Unparks counts the wakeups this worker issued when publishing tiles
	// it made ready (one for an owned tile, Workers for a shared tile).
	Unparks int64
	// OwnPops and SharedPops count tiles the worker claimed from its own
	// queue and from the shared queue; their sum over all workers equals
	// the tiles executed.
	OwnPops    int64
	SharedPops int64
	// EmptyPolls counts polls that found no ready tile (each park is
	// preceded by one, so Parks <= EmptyPolls).
	EmptyPolls int64
}

// Stats reports what each worker did during a Run.
type Stats struct {
	Workers          int
	UpdatesPerWorker []int64
	TilesPerWorker   []int64
	// BusyPerWorker is the time each worker spent executing tiles
	// (excluding waits), for load-imbalance analysis.
	BusyPerWorker []time.Duration
	// Sched carries per-worker scheduler counters for dependency-driven
	// runs; nil from RunStatic, which has no queues or parkers.
	Sched        []SchedCounters
	TotalUpdates int64
}

// Imbalance returns max/mean of per-worker busy time — 1.0 is a perfectly
// balanced run. Returns 0 when nothing ran.
func (s *Stats) Imbalance() float64 { return Imbalance(s.BusyPerWorker) }

// Imbalance returns max/mean of the per-worker busy times busy (1.0 =
// perfectly balanced, 0 when nothing ran).
func Imbalance(busy []time.Duration) float64 {
	var sum, maxB time.Duration
	for _, b := range busy {
		sum += b
		if b > maxB {
			maxB = b
		}
	}
	if sum <= 0 {
		return 0
	}
	mean := float64(sum) / float64(len(busy))
	return float64(maxB) / mean
}

// newStats validates cfg and returns the zeroed Stats a run fills in, or
// the error that refuses the run before it starts: a missing Exec, no
// workers, or an already-cancelled Ctx.
func newStats(cfg Config) (*Stats, error) {
	if cfg.Exec == nil {
		return nil, errors.New("engine: Config.Exec is required")
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("engine: workers must be positive, got %d", cfg.Workers)
	}
	if cfg.Ctx != nil {
		if err := cfg.Ctx.Err(); err != nil {
			return nil, err
		}
	}
	return &Stats{
		Workers:          cfg.Workers,
		UpdatesPerWorker: make([]int64, cfg.Workers),
		TilesPerWorker:   make([]int64, cfg.Workers),
		BusyPerWorker:    make([]time.Duration, cfg.Workers),
	}, nil
}

// result turns a finished run's terminal status into the executor's return
// values: the context's error, the recorded panic, or the completed Stats.
func (s *Stats) result(status int32, cfg Config, pe *PanicError) (*Stats, error) {
	switch status {
	case runCancelled:
		return nil, cfg.Ctx.Err()
	case runPanicked:
		return nil, pe
	}
	for _, u := range s.UpdatesPerWorker {
		s.TotalUpdates += u
	}
	return s, nil
}

// parkSpin is how many yield rounds a worker spins before parking. Small, so
// oversubscribed hosts (more workers than cores) hand the core over quickly;
// nonzero, so a worker whose next tile is one completion away avoids the
// park/unpark round trip.
const parkSpin = 8

// runState is the scheduler state shared by the workers of one Run. There is
// no global lock: dependency resolution is a fetch-add per edge, ready tiles
// move through lock-free bounded queues, and idle workers park on their own
// Parker and are woken individually — completing an owned tile wakes at most
// its owner instead of broadcasting to every worker.
type runState struct {
	tiles []*spacetime.Tile
	nDeps []atomic.Int32
	// depOff/depFlat are the CSR reverse graph: the dependents of tile i
	// are depFlat[depOff[i]:depOff[i+1]]. Both live in pooled schedMem
	// buffers, reused across runs.
	depOff  []int32
	depFlat []int32

	ownQ    []tileQueue // per-worker FIFO of ready tiles it owns
	sharedQ tileQueue   // ready tiles with no owner, drained by anyone
	parkers []xsync.Parker

	remaining atomic.Int32 // tiles not yet executed
	idle      atomic.Int32 // workers currently parked (sampler gauge only)
	status    atomic.Int32 // runActive until the first terminal event (CAS)
	panicErr  *PanicError  // set by the worker whose CAS to runPanicked won
}

// fail tries to move the run into terminal state `to` and, on winning the
// race, wakes every parked worker so they observe it. Returns whether this
// caller's event is the recorded outcome.
func (st *runState) fail(to int32) bool {
	if st.status.CompareAndSwap(runActive, to) {
		st.unparkAll()
		return true
	}
	return false
}

// Run executes the tiling on cfg.Workers workers, respecting the flow
// dependencies implied by the geometry for a stencil of order cfg.Order.
// Tiles with Owner >= 0 run only on worker Owner % Workers (data-to-core
// affinity); tiles with Owner < 0 go to a shared queue any worker may drain
// (the NUMA-ignorant case). When cfg.Deps is nil, Run derives the
// dependencies and returns ErrCycle, before executing anything, if they
// are cyclic; a caller-supplied cfg.Deps must already have passed
// CheckDeps. Run returns cfg.Ctx.Err() if the context is cancelled mid-run
// and a *PanicError if any Exec panics. On those errors the grid may be
// partially updated — it is the caller's job to treat the state as
// unusable (see Solver poisoning).
func Run(tiles []*spacetime.Tile, cfg Config) (*Stats, error) {
	stats, err := newStats(cfg)
	if err != nil {
		return nil, err
	}
	stats.Sched = make([]SchedCounters, cfg.Workers)
	if len(tiles) == 0 {
		return stats, nil
	}
	spacetime.AssignIDs(tiles)
	deps := cfg.Deps
	if deps == nil {
		deps = BuildDeps(tiles, cfg.Order, cfg.Wrap)
		if err := CheckDeps(deps); err != nil {
			return nil, err
		}
	}

	// All per-run scheduler buffers come from a pool and are returned once
	// every worker goroutine has exited (all return paths pass wg.Wait), so
	// repeated runs of a cached plan allocate almost nothing.
	mem := getSchedMem(len(tiles), cfg.Workers)
	defer putSchedMem(mem)
	mem.buildReverse(deps)
	st := &runState{
		tiles:   tiles,
		nDeps:   mem.nDeps,
		depOff:  mem.depOff,
		depFlat: mem.depFlat,
		ownQ:    mem.ownQ,
		parkers: mem.parkers,
	}
	st.remaining.Store(int32(len(tiles)))

	// Size each bounded queue by the tiles that can ever be routed to it;
	// every tile is routed exactly once, so the queues partition one flat
	// pooled backing of len(tiles) slots.
	ownCount := mem.ownCount
	sharedCount := 0
	for _, t := range tiles {
		if t.Owner < 0 {
			sharedCount++
		} else {
			ownCount[t.Owner%cfg.Workers]++
		}
	}
	qbuf := mem.qbuf
	st.sharedQ.reset(qbuf[:sharedCount])
	off := sharedCount
	for w := range st.ownQ {
		st.ownQ[w].reset(qbuf[off : off+ownCount[w]])
		off += ownCount[w]
	}
	// Seed the initially-ready tiles in the tiler's emission order (workers
	// have not started; plain pushes publish before the goroutines exist).
	for i := range tiles {
		if st.nDeps[i].Load() == 0 {
			st.route(i, cfg.Workers)
		}
	}

	stopWatch := watchCtx(cfg.Ctx, &st.status, st.parkers)

	stopSampler := startSampler(cfg, func() Sample {
		return Sample{Ready: st.readyDepth(), Idle: int(st.idle.Load())}
	})

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if cfg.Pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				_ = affinity.PinCurrentThread(w)
			}
			pprof.Do(context.Background(), workerLabels(cfg.Scheme, w), func(context.Context) {
				st.worker(w, cfg, stats)
			})
		}(w)
	}
	wg.Wait()
	stopSampler()
	stopWatch()
	return stats.result(st.status.Load(), cfg, st.panicErr)
}

// watchCtx translates ctx cancellation into the run's status word: it
// moves status from runActive to runCancelled and, on winning, unparks
// parkers so parked workers wake to observe it (spinning workers poll the
// word). The returned stop tears the watcher down and joins it, so a
// broadcast in flight never touches pooled parkers after the run returns.
// A nil or never-done ctx starts no goroutine.
func watchCtx(ctx context.Context, status *atomic.Int32, parkers []xsync.Parker) (stop func()) {
	if ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	done, stopCh, exited := ctx.Done(), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-done:
			if status.CompareAndSwap(runActive, runCancelled) {
				for w := range parkers {
					parkers[w].Unpark()
				}
			}
		case <-stopCh:
		}
	}()
	return func() {
		close(stopCh)
		<-exited
	}
}

// route enqueues ready tile i without waking anyone (setup phase).
func (st *runState) route(i, workers int) {
	if o := st.tiles[i].Owner; o < 0 {
		st.sharedQ.push(i)
	} else {
		st.ownQ[o%workers].push(i)
	}
}

// publish enqueues ready tile i and wakes the workers that may execute it:
// the single owner for owned tiles, everyone for shared tiles (any worker
// may drain the shared queue, and a worker between its last empty poll and
// its park is only caught by arming its own Parker). It returns the number
// of wakeups issued, for the publisher's Unparks counter.
func (st *runState) publish(i, workers int) int64 {
	o := st.tiles[i].Owner
	if o < 0 {
		st.sharedQ.push(i)
		st.unparkAll()
		return int64(workers)
	}
	w := o % workers
	st.ownQ[w].push(i)
	st.parkers[w].Unpark()
	return 1
}

// workerLabels builds the pprof label set a worker goroutine runs under, so
// CPU profiles can be focused per scheme (-tagfocus scheme=nuCORALS) and
// per worker.
func workerLabels(scheme string, w int) pprof.LabelSet {
	if scheme == "" {
		return pprof.Labels("worker", strconv.Itoa(w))
	}
	return pprof.Labels("scheme", scheme, "worker", strconv.Itoa(w))
}

func (st *runState) unparkAll() {
	for w := range st.parkers {
		st.parkers[w].Unpark()
	}
}

// next returns the next tile for worker w: its own queue first (preserving
// the order tiles became ready for it), then the shared queue. Returns -1 if
// nothing is ready for w right now; shared reports which queue the tile
// came from, for the pop counters.
func (st *runState) next(w int) (i int, shared bool) {
	if i := st.ownQ[w].pop(); i >= 0 {
		return i, false
	}
	return st.sharedQ.pop(), true
}

func (st *runState) worker(w int, cfg Config, stats *Stats) {
	// cur tracks the tile whose Exec is in flight so the recover below can
	// attribute a panic. The recover sits at the worker top (not around each
	// Exec call) to keep the hot path free of per-tile defers; a worker that
	// panics in its own scheduler code is converted the same way, with
	// Tile = -1.
	cur := -1
	// Scheduler counters live in a worker-local variable and are folded
	// into Stats once at exit (the defer also runs on panic and on the
	// terminal-status return paths), keeping the hot path free of extra
	// atomics and shared-cacheline traffic.
	var sc SchedCounters
	defer func() {
		stats.Sched[w] = sc
		if r := recover(); r != nil && st.fail(runPanicked) {
			st.panicErr = newPanicError(st.tiles, cur, w, r)
		}
	}()
	for {
		if st.status.Load() != runActive {
			return
		}
		i, shared := st.next(w)
		if i < 0 {
			sc.EmptyPolls++
			// Out of work: park until a publish, the final completion, or a
			// terminal event unparks this worker. The dependencies were
			// checked acyclic before the run, so until the last completion
			// some unfinished tile is always ready or executing; liveness
			// needs no runtime check, and idle only feeds the sampler.
			st.idle.Add(1)
			st.parkers[w].Park(parkSpin)
			sc.Parks++
			st.idle.Add(-1)
			continue
		}
		if shared {
			sc.SharedPops++
		} else {
			sc.OwnPops++
		}

		cur = i
		t0 := time.Now()
		n := cfg.Exec(w, st.tiles[i])
		cur = -1
		stats.BusyPerWorker[w] += time.Since(t0)
		stats.UpdatesPerWorker[w] += n
		stats.TilesPerWorker[w]++

		// Resolve dependents: the last completed input pushes the tile, so
		// each tile is published exactly once.
		for _, d := range st.depFlat[st.depOff[i]:st.depOff[i+1]] {
			if st.nDeps[d].Add(-1) == 0 {
				sc.Unparks += st.publish(int(d), cfg.Workers)
			}
		}
		if st.remaining.Add(-1) == 0 {
			if st.status.CompareAndSwap(runActive, runDone) {
				st.unparkAll()
			}
			return
		}
	}
}
