// Package xsync provides the Parker wakeup primitive of the
// dependency-driven scheduler: the engine's owner queues stand in for the
// spin-wait sync flags of the paper's Section III-B, and a worker with no
// ready tile parks on its Parker instead of spinning on a flag.
package xsync

import (
	"runtime"
	"sync/atomic"
)

// Parker is a one-owner spin-then-park wakeup primitive, the futex-style
// replacement for condition-variable broadcasts in the tile scheduler: each
// worker owns one Parker and blocks on it when out of work; any thread that
// hands the worker new work calls Unpark. A notification is a single token —
// Unpark while the owner is awake makes the owner's next Park return
// immediately, so the push-then-unpark protocol has no lost-wakeup window.
//
// Exactly one goroutine (the owner) may call Park; any goroutine may call
// Unpark. The zero value is ready to use.
//
// The token semantics also make Parker safe as a cancellation doorbell: a
// canceller that publishes a stop flag and then Unparks every worker's
// Parker cannot lose the race against a worker that checked the flag and is
// about to park — the Unpark arms that worker's next Park, which returns
// immediately, and the worker re-checks the flag. The engine's
// Unpark-on-cancel broadcast relies on exactly this (see engine.Config.Ctx).
type Parker struct {
	// state holds one of parkerIdle, parkerNotified, parkerParked. Only the
	// owner transitions out of parkerNotified and into parkerParked.
	state atomic.Int32
	ch    chan struct{}
}

const (
	parkerIdle int32 = iota
	parkerNotified
	parkerParked
)

func (p *Parker) channel() chan struct{} {
	// Lazily create the channel so the zero value works. Only the owner
	// allocates; unparkers observe it via the parked state (the owner stores
	// the channel before CASing into parkerParked).
	if p.ch == nil {
		p.ch = make(chan struct{}, 1)
	}
	return p.ch
}

// Park blocks until a notification is (or already was) delivered, consuming
// it. It spins for spin rounds before blocking, yielding the processor while
// spinning so single-core hosts stay live.
func (p *Parker) Park(spin int) {
	for i := 0; i < spin; i++ {
		if p.state.CompareAndSwap(parkerNotified, parkerIdle) {
			return
		}
		runtime.Gosched()
	}
	ch := p.channel()
	if p.state.CompareAndSwap(parkerIdle, parkerParked) {
		<-ch
		p.state.Store(parkerIdle)
		return
	}
	// The only other possible state is parkerNotified (only the owner sets
	// parkerParked): consume the token.
	p.state.Store(parkerIdle)
}

// Reset discards any pending notification token so the Parker can be
// reused for a new run. It must not be called concurrently with Park or
// Unpark — the engine calls it only between runs, after every worker of
// the previous run has exited. The lazily-created channel is kept (it is
// always drained when Park returns), so a pooled Parker re-parks without
// reallocating.
func (p *Parker) Reset() {
	p.state.Store(parkerIdle)
}

// Unpark delivers one notification: it wakes the owner if parked, or arms
// the owner's next Park otherwise. Multiple Unparks between Parks coalesce
// into one token.
func (p *Parker) Unpark() {
	for {
		switch p.state.Load() {
		case parkerNotified:
			return
		case parkerIdle:
			if p.state.CompareAndSwap(parkerIdle, parkerNotified) {
				return
			}
		case parkerParked:
			if p.state.CompareAndSwap(parkerParked, parkerNotified) {
				// The owner created the channel before parking; capacity 1
				// absorbs the token even before the owner reaches the
				// receive.
				p.ch <- struct{}{}
				return
			}
		}
	}
}
