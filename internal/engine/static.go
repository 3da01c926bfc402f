package engine

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"nustencil/internal/affinity"
	"nustencil/internal/spacetime"
	"nustencil/internal/xsync"
)

// RunStatic executes the tiling with the paper's literal synchronization
// structure (Section III-B): each worker walks its own tiles in the
// tiler's emission order; one completion flag per tile forms the
// "structure of synchronization flags"; before executing a tile the worker
// spin-waits on the flags of the tiles it flow-depends on (the local
// synchronization), and cross-layer ordering emerges from the same flags
// (the global barrier degenerates to its dependency edges).
//
// Unlike Run, there is no scheduler: the schedule is fixed up front, so a
// tiler whose per-worker emission order is inconsistent with the
// dependency order would deadlock. That is a property of the plan, checked
// once by CheckStatic: RunStatic calls CheckDeps and CheckStatic itself
// only when it derives the dependencies (cfg.Deps == nil) and otherwise
// trusts cfg.Deps to have passed both. All of this repository's NUMA-aware
// tilers emit in dependency-consistent order; RunStatic exists to
// demonstrate that and to measure scheduler overhead against Run.
//
// RunStatic shares Run's failure semantics: cfg.Ctx cancellation is
// observed between tiles and inside every spin-wait (spinning workers poll
// the shared status word, so no Unpark broadcast is needed), and a panic
// in any Exec is recovered into a *PanicError that stops the other
// workers instead of killing the process.
func RunStatic(tiles []*spacetime.Tile, cfg Config) (*Stats, error) {
	stats, err := newStats(cfg)
	if err != nil {
		return nil, err
	}
	if len(tiles) == 0 {
		return stats, nil
	}
	listOff, listFlat, err := staticLists(tiles, cfg.Workers)
	if err != nil {
		return nil, err
	}
	spacetime.AssignIDs(tiles)
	deps := cfg.Deps
	if deps == nil {
		deps = BuildDeps(tiles, cfg.Order, cfg.Wrap)
		if err := CheckDeps(deps); err != nil {
			return nil, err
		}
		if err := CheckStatic(tiles, deps, cfg.Workers); err != nil {
			return nil, err
		}
	}

	flags := xsync.NewFlagTable(len(tiles))
	// waiting and progress exist only for the sampler's Idle and Ready
	// gauges; liveness was settled when the plan was checked.
	var waiting atomic.Int32
	var progress atomic.Int64
	var status atomic.Int32 // runActive until the first terminal event
	var panicErr *PanicError

	// waitFlag spin-waits for flag i, bailing out on any terminal status
	// (cancellation or a peer's panic).
	waitFlag := func(i int) bool {
		if flags.IsSet(i) {
			return true
		}
		waiting.Add(1)
		defer waiting.Add(-1)
		for !flags.IsSet(i) {
			if status.Load() != runActive {
				return false
			}
			runtime.Gosched()
		}
		return true
	}

	stopWatch := watchCtx(cfg.Ctx, &status, nil)

	stopSampler := startSampler(cfg, func() Sample {
		return Sample{Ready: len(tiles) - int(progress.Load()), Idle: int(waiting.Load())}
	})

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur := -1
			defer func() {
				if r := recover(); r != nil && status.CompareAndSwap(runActive, runPanicked) {
					panicErr = newPanicError(tiles, cur, w, r)
				}
			}()
			if cfg.Pin {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
				_ = affinity.PinCurrentThread(w)
			}
			pprof.Do(context.Background(), workerLabels(cfg.Scheme, w), func(context.Context) {
				for _, i32 := range listFlat[listOff[w]:listOff[w+1]] {
					i := int(i32)
					if status.Load() != runActive {
						return
					}
					for _, d := range deps[i] {
						if !waitFlag(d) {
							return
						}
					}
					cur = i
					t0 := time.Now()
					n := cfg.Exec(w, tiles[i])
					cur = -1
					stats.BusyPerWorker[w] += time.Since(t0)
					stats.UpdatesPerWorker[w] += n
					stats.TilesPerWorker[w]++
					flags.Set(i)
					progress.Add(1)
				}
			})
		}(w)
	}
	wg.Wait()
	stopSampler()
	stopWatch()
	return stats.result(status.Load(), cfg, panicErr)
}
