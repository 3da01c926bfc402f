package engine

import (
	"runtime"
	"sync/atomic"
)

// tileQueue is a bounded, single-use, lock-free FIFO of tile indices. The
// scheduler pushes every tile exactly once (when its dependency count hits
// zero), so capacity equals the number of tiles that can ever be routed to
// the queue and the queue never wraps. Producers reserve a slot with one
// fetch-add and publish with one store; consumers claim a slot with one CAS.
// Per-worker owned queues have a single consumer (the owning worker), the
// shared queue is drained by every worker — the same code covers both.
//
// Slots hold id+1 so the zero-initialized buffer reads as "reserved but not
// yet published".
type tileQueue struct {
	buf  []atomic.Int32
	head atomic.Int32 // next slot to consume
	tail atomic.Int32 // next slot to reserve
}

// reset points the queue at an externally owned (already zeroed) backing
// segment and rewinds the cursors, so pooled runs reuse one flat buffer
// for every queue instead of allocating per queue per run.
func (q *tileQueue) reset(buf []atomic.Int32) {
	q.buf = buf
	q.head.Store(0)
	q.tail.Store(0)
}

// push appends tile i. It must be called at most cap times over the queue's
// lifetime (enforced by the dependency counters: each tile becomes ready
// exactly once).
func (q *tileQueue) push(i int) {
	s := q.tail.Add(1) - 1
	q.buf[s].Store(int32(i) + 1)
}

// pop removes and returns the next tile index, or -1 if the queue is
// currently empty. If a producer has reserved the head slot but not yet
// published it, pop waits for the store (a two-instruction window).
func (q *tileQueue) pop() int {
	for {
		h := q.head.Load()
		if h >= q.tail.Load() {
			return -1
		}
		if !q.head.CompareAndSwap(h, h+1) {
			continue
		}
		for spins := 0; ; spins++ {
			if v := q.buf[h].Load(); v != 0 {
				return int(v) - 1
			}
			if spins > 16 {
				runtime.Gosched()
			}
		}
	}
}
