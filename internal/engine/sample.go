package engine

import "time"

// Sample is one periodic scheduler observation, delivered to
// Config.OnSample by the sampler goroutine Config.SampleEvery enables.
// Every field is read from atomics the scheduler maintains next to its own
// bookkeeping (ready bitmaps, the idle worker count), so sampling adds no
// code to the per-tile hot path.
type Sample struct {
	// Elapsed is the time since the run's workers started.
	Elapsed time.Duration
	// Ready is the number of ready tiles enqueued but not yet claimed by
	// any worker.
	Ready int
	// Idle is the number of workers currently parked for want of work.
	Idle int
}

// startSampler starts the sampler goroutine when cfg enables sampling and
// returns a stop function that must be called before the run returns; the
// last OnSample call happens-before stop returns. When sampling is off the
// returned stop is a no-op and no goroutine starts.
func (st *runState) startSampler(cfg Config) (stop func()) {
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
				cfg.OnSample(Sample{
					Elapsed: time.Since(start),
					Ready:   st.readyDepth(),
					Idle:    int(st.idle.Load()),
				})
			}
		}
	}()
	return func() {
		close(stopCh)
		<-doneCh
	}
}

// readyDepth counts ready-but-unclaimed tiles across every queue.
func (st *runState) readyDepth() int {
	n := 0
	for q := range st.queues {
		n += st.queues[q].depth()
	}
	return n
}
