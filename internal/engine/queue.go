package engine

import (
	"math/bits"
	"sync/atomic"

	"nustencil/internal/spacetime"
)

// readyQueue holds the ready, unclaimed tiles of one queue: the tiles one
// worker owns, or the ownerless tiles every worker may take. list is the
// queue's tiles in ID order — the tiler's emission order — and bit p of
// ready marks list[p] ready. pop claims the lowest set bit, so a worker
// runs its ready tiles in plan order, whatever order they became ready in;
// pipelined plans (nuCATS' wavefront chunks) emit the tiles that unblock
// other workers first and rely on that order.
//
// Publishing sets a bit with a CAS loop; claiming clears one with a CAS,
// which is also what arbitrates between the workers draining the shared
// queue. Each tile is published exactly once per run, so a queue needs one
// bit per tile it can ever hold.
type readyQueue struct {
	list  []int32
	ready []atomic.Uint64
	// low packs a scan hint (high 32 bits: the first word that can hold a
	// set bit) with a count of publishes (low 32 bits). pop starts its scan
	// at the hint and raises it past the words it found empty; every push
	// lowers it and bumps the count, so a raise computed before a
	// concurrent push loses its CAS instead of hiding the pushed tile.
	low atomic.Uint64
}

// reset points the queue at its ID-ordered tile list and an externally
// owned bitmap segment (one bit per list entry), and clears both the bits
// and the hint, so pooled runs reuse one flat buffer for every queue.
func (q *readyQueue) reset(list []int32, ready []atomic.Uint64) {
	q.list, q.ready = list, ready
	for k := range ready {
		ready[k].Store(0)
	}
	q.low.Store(0)
}

// push marks list[p] ready.
func (q *readyQueue) push(p int32) {
	word := &q.ready[p>>6]
	for {
		v := word.Load()
		if word.CompareAndSwap(v, v|1<<(p&63)) {
			break
		}
	}
	k := uint64(p >> 6)
	for {
		v := q.low.Load()
		hint := v >> 32
		if k < hint {
			hint = k
		}
		if q.low.CompareAndSwap(v, hint<<32|uint64(uint32(v)+1)) {
			return
		}
	}
}

// pop claims the lowest ready tile and returns its index, or -1 if no tile
// is ready right now.
func (q *readyQueue) pop() int {
	v := q.low.Load()
	for k := int(v >> 32); k < len(q.ready); k++ {
		word := &q.ready[k]
		for w := word.Load(); w != 0; w = word.Load() {
			b := bits.TrailingZeros64(w)
			if word.CompareAndSwap(w, w&^(1<<b)) {
				q.raise(v, k)
				return int(q.list[k<<6|b])
			}
		}
	}
	q.raise(v, len(q.ready))
	return -1
}

// raise moves the scan hint up to word k, whose predecessors a pop that
// loaded the hint value v found empty, unless a push has happened since.
func (q *readyQueue) raise(v uint64, k int) {
	if uint64(k) > v>>32 {
		q.low.CompareAndSwap(v, uint64(k)<<32|v&(1<<32-1))
	}
}

// depth counts the queue's ready tiles. The loads race benignly with the
// workers: a sample is a snapshot, not a barrier.
func (q *readyQueue) depth() int {
	n := 0
	for k := range q.ready {
		n += bits.OnesCount64(q.ready[k].Load())
	}
	return n
}

// queueLists fills the ID-ordered tile list of every queue in CSR form:
// queue q holds tiles flat[off[q]:off[q+1]], where queue w < workers is
// worker w's owned tiles (tile i belongs to worker tiles[i].Owner %
// workers) and queue workers is the ownerless tiles any worker may take.
// off must have length workers+2, flat and pos length len(tiles); pos[i]
// receives tile i's position within its queue's list. A counting pass
// sizes every list, so nothing is appended.
func queueLists(tiles []*spacetime.Tile, workers int, off []int, flat, pos []int32) {
	for q := range off {
		off[q] = 0
	}
	for _, t := range tiles {
		off[queueOf(t, workers)+1]++
	}
	for q := 1; q < len(off); q++ {
		off[q] += off[q-1]
	}
	// Fill in ID order, using off[q] as queue q's cursor; each cursor ends
	// where the next list starts, so shifting them back restores the
	// offsets.
	for i, t := range tiles {
		q := queueOf(t, workers)
		flat[off[q]] = int32(i)
		off[q]++
	}
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
	for q := 0; q+1 < len(off); q++ {
		for p, i := range flat[off[q]:off[q+1]] {
			pos[i] = int32(p)
		}
	}
}

// queueOf returns the queue tile t is routed to: its owner's, or the shared
// queue (index workers) when it has none.
func queueOf(t *spacetime.Tile, workers int) int {
	if t.Owner < 0 {
		return workers
	}
	return t.Owner % workers
}
