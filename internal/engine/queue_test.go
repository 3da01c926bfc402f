package engine

import (
	"sync"
	"sync/atomic"
	"testing"
)

func newTestQueue(n int) *readyQueue {
	list := make([]int32, n)
	for p := range list {
		list[p] = int32(100 + p) // tile index = position + 100
	}
	q := &readyQueue{}
	q.reset(list, make([]atomic.Uint64, (n+63)/64))
	return q
}

// pop returns the lowest ready position even after the scan hint moved
// past it: a push below the hint lowers the hint again.
func TestReadyQueueLowestFirst(t *testing.T) {
	q := newTestQueue(200)
	for _, p := range []int32{150, 70, 130} {
		q.push(p)
	}
	if got := q.pop(); got != 170 {
		t.Fatalf("pop = %d, want 170", got)
	}
	q.push(3) // below the raised hint
	for _, want := range []int{103, 230, 250, -1} {
		if got := q.pop(); got != want {
			t.Fatalf("pop = %d, want %d", got, want)
		}
	}
	q.push(199)
	if got, d := q.pop(), q.depth(); got != 299 || d != 0 {
		t.Fatalf("pop = %d with depth %d after, want 299 and 0", got, d)
	}
}

// Concurrent publishers and claimers: every pushed position is claimed
// exactly once, and a claimer that finds the queue empty after the last
// push has completed sees nothing left.
func TestReadyQueueConcurrent(t *testing.T) {
	const n, pushers, poppers = 5000, 4, 4
	q := newTestQueue(n)
	claimed := make([]atomic.Int32, n)
	var pushed atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < pushers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for p := g; p < n; p += pushers {
				q.push(int32(n - 1 - p)) // descending, to keep lowering the hint
				pushed.Add(1)
			}
		}(g)
	}
	var total atomic.Int32
	for g := 0; g < poppers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				done := pushed.Load() == n
				i := q.pop()
				if i < 0 {
					if done {
						return
					}
					continue
				}
				claimed[i-100].Add(1)
				total.Add(1)
			}
		}()
	}
	wg.Wait()
	if total.Load() != n {
		t.Fatalf("claimed %d tiles, want %d", total.Load(), n)
	}
	for p := range claimed {
		if c := claimed[p].Load(); c != 1 {
			t.Fatalf("position %d claimed %d times", p, c)
		}
	}
}
