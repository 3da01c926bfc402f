package engine

import "time"

// Sample is one periodic scheduler observation, delivered to
// Config.OnSample by the sampler goroutine Config.SampleEvery enables.
// Every field is read from atomics the executors maintain next to their own
// bookkeeping (queue indices, idle and waiting worker counts), so sampling
// adds no code to the per-tile hot path.
type Sample struct {
	// Elapsed is the time since the run's workers started.
	Elapsed time.Duration
	// Ready is the number of ready tiles enqueued but not yet claimed by
	// any worker. Under RunStatic, which has no ready queues, it counts the
	// not-yet-executed tiles of the static schedule instead.
	Ready int
	// Idle is the number of workers currently out of work: parked (Run) or
	// spin-waiting on a completion flag (RunStatic).
	Idle int
}

// startSampler starts the sampler goroutine when cfg enables sampling and
// returns a stop function that must be called before the run returns; the
// last OnSample call happens-before stop returns. snap reads the
// scheduler's atomics into a Sample (Elapsed is filled in here). When
// sampling is off the returned stop is a no-op and no goroutine starts.
func startSampler(cfg Config, snap func() Sample) (stop func()) {
	if cfg.SampleEvery <= 0 || cfg.OnSample == nil {
		return func() {}
	}
	stopCh := make(chan struct{})
	doneCh := make(chan struct{})
	start := time.Now()
	go func() {
		defer close(doneCh)
		tick := time.NewTicker(cfg.SampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-tick.C:
				s := snap()
				s.Elapsed = time.Since(start)
				cfg.OnSample(s)
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

// readyDepth counts enqueued-but-unclaimed tiles across every queue. The
// head/tail loads race benignly with the workers — a sample is a snapshot,
// not a barrier — so each queue's depth is clamped below at zero.
func (st *runState) readyDepth() int {
	depth := func(q *tileQueue) int {
		d := int(q.tail.Load()) - int(q.head.Load())
		if d < 0 {
			return 0
		}
		return d
	}
	n := depth(&st.sharedQ)
	for w := range st.ownQ {
		n += depth(&st.ownQ[w])
	}
	return n
}
