package engine

import (
	"sync"
	"sync/atomic"

	"nustencil/internal/spacetime"
	"nustencil/internal/xsync"
)

// schedMem is the reusable allocation footprint of one dependency-driven
// Run: every per-run slice the scheduler needs, kept together so repeated
// runs of the same plan (iterative solvers, benchmarks) execute without
// growing the heap. The buffers are sized for the largest run they have
// served and only grow; the contained values are either rewritten in full
// each run (nDeps, the CSR arrays, the queue lists) or explicitly reset
// (ready bitmaps, parkers).
//
// The reverse dependency graph is stored in CSR form — one offsets array
// and one flat edge array — instead of a [][]int32 built by per-edge
// appends: with tens of thousands of tiles the append-grown representation
// dominated Run's allocation count (~3 allocations per tile), while the
// CSR form is two bulk buffers filled by a counting pass.
type schedMem struct {
	nDeps []atomic.Int32

	// depOff/depFlat are the CSR reverse graph: the dependents of tile i
	// are depFlat[depOff[i]:depOff[i+1]]. cursor is the fill scratch.
	depOff  []int32
	depFlat []int32
	cursor  []int32

	// queues are the per-worker ready queues followed by the shared one.
	// qOff/qList are their ID-ordered tile lists in CSR form, qPos[i] is
	// tile i's position in its queue's list, and qBits is the one flat
	// backing array behind every queue's ready bitmap.
	queues []readyQueue
	qOff   []int
	qList  []int32
	qPos   []int32
	qBits  []atomic.Uint64

	parkers []xsync.Parker
}

var schedMemPool = sync.Pool{New: func() any { return new(schedMem) }}

// getSchedMem returns a pooled schedMem resized and reset for a run of
// nTiles tiles on workers workers. Release it with putSchedMem only after
// every worker goroutine has exited.
func getSchedMem(nTiles, workers int) *schedMem {
	m := schedMemPool.Get().(*schedMem)

	if cap(m.nDeps) < nTiles {
		m.nDeps = make([]atomic.Int32, nTiles)
	}
	m.nDeps = m.nDeps[:nTiles]

	m.depOff = growInt32(m.depOff, nTiles+1)
	m.cursor = growInt32(m.cursor, nTiles)
	m.qList = growInt32(m.qList, nTiles)
	m.qPos = growInt32(m.qPos, nTiles)
	if cap(m.queues) < workers+1 {
		m.queues = make([]readyQueue, workers+1)
	}
	m.queues = m.queues[:workers+1]
	if cap(m.qOff) < workers+2 {
		m.qOff = make([]int, workers+2)
	}
	m.qOff = m.qOff[:workers+2]

	if cap(m.parkers) < workers {
		m.parkers = make([]xsync.Parker, workers)
	}
	m.parkers = m.parkers[:workers]
	for i := range m.parkers {
		// Discard tokens left by the previous run's terminal Unpark
		// broadcast; the workers that would have consumed them are gone.
		m.parkers[i].Reset()
	}

	return m
}

// buildReverse fills the CSR reverse graph (dependents) and the dependency
// counters from deps, allocating only if the edge count outgrew the pooled
// flat buffer.
func (m *schedMem) buildReverse(deps [][]int) {
	n := len(deps)
	for i := range m.cursor[:n] {
		m.cursor[i] = 0
	}
	total := 0
	for i, d := range deps {
		m.nDeps[i].Store(int32(len(d)))
		total += len(d)
		for _, j := range d {
			m.cursor[j]++
		}
	}
	if cap(m.depFlat) < total {
		m.depFlat = make([]int32, total)
	}
	m.depFlat = m.depFlat[:total]
	var off int32
	for i := 0; i < n; i++ {
		m.depOff[i] = off
		off += m.cursor[i]
		m.cursor[i] = m.depOff[i]
	}
	m.depOff[n] = off
	for i, d := range deps {
		for _, j := range d {
			m.depFlat[m.cursor[j]] = int32(i)
			m.cursor[j]++
		}
	}
}

// buildQueues fills every queue's ID-ordered tile list and points the
// queues at cleared segments of the pooled bitmap, one bit per list entry.
func (m *schedMem) buildQueues(tiles []*spacetime.Tile, workers int) {
	queueLists(tiles, workers, m.qOff, m.qList, m.qPos)
	words := 0
	for q := range m.queues {
		words += (m.qOff[q+1] - m.qOff[q] + 63) / 64
	}
	if cap(m.qBits) < words {
		m.qBits = make([]atomic.Uint64, words)
	}
	m.qBits = m.qBits[:words]
	w := 0
	for q := range m.queues {
		n := (m.qOff[q+1] - m.qOff[q] + 63) / 64
		m.queues[q].reset(m.qList[m.qOff[q]:m.qOff[q+1]], m.qBits[w:w+n])
		w += n
	}
}

// growInt32 returns b resliced to length n, reallocated if it is too small.
func growInt32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

func putSchedMem(m *schedMem) { schedMemPool.Put(m) }
