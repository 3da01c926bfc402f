package engine_test

import (
	"bytes"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"nustencil/internal/engine"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
)

// goid returns the calling goroutine's id, read from the header of its
// stack trace ("goroutine 18 [running]:").
func goid() int64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, err := strconv.ParseInt(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// eachCall is one f(i) call of Each: the goroutine that made it and,
// when pinned, the CPUs its thread may run on (nil unpinned).
type eachCall struct {
	i    int
	g    int64
	cpus []int
}

// runEach runs Each over n tiles and returns its calls in the order they
// happened, with the error.
func runEach(n, workers int, pin bool, owner func(int) int) ([]eachCall, error) {
	var mu sync.Mutex
	var calls []eachCall
	err := engine.Each(n, workers, pin, owner, func(i int) {
		c := eachCall{i: i, g: goid()}
		if pin {
			c.cpus = threadCPUs()
		}
		mu.Lock()
		calls = append(calls, c)
		mu.Unlock()
	})
	return calls, err
}

// Each calls f once per tile; tile i runs on worker owner(i) % workers,
// one goroutine per worker (the caller's, for one unpinned worker), each
// worker's tiles in increasing i; pinned, a worker's thread may run only
// on its own CPU.
func TestEachRunsEveryTileOnItsOwner(t *testing.T) {
	owner := func(i int) int { return (5 * i) % 7 }
	for _, pin := range []bool{false, true} {
		for workers := 1; workers <= 4; workers++ {
			const n = 23
			calls, err := runEach(n, workers, pin, owner)
			if err != nil {
				t.Fatal(err)
			}
			if len(calls) != n {
				t.Fatalf("pin %v workers %d: %d calls, want %d", pin, workers, len(calls), n)
			}
			seen := make([]bool, n)
			byWorker := map[int]int64{}
			byGoroutine := map[int64]int{}
			lastOf := map[int]int{}
			for _, c := range calls {
				if seen[c.i] {
					t.Fatalf("pin %v workers %d: tile %d ran twice", pin, workers, c.i)
				}
				seen[c.i] = true
				w := owner(c.i) % workers
				if g, ok := byWorker[w]; ok && g != c.g {
					t.Fatalf("pin %v workers %d: worker %d's tiles ran on goroutines %d and %d", pin, workers, w, g, c.g)
				}
				if v, ok := byGoroutine[c.g]; ok && v != w {
					t.Fatalf("pin %v workers %d: workers %d and %d share goroutine %d", pin, workers, v, w, c.g)
				}
				byWorker[w], byGoroutine[c.g] = c.g, w
				if prev, ok := lastOf[w]; ok && prev > c.i {
					t.Fatalf("pin %v workers %d: worker %d ran tile %d after tile %d", pin, workers, w, c.i, prev)
				}
				lastOf[w] = c.i
				if workers == 1 && !pin && c.g != goid() {
					t.Fatalf("one unpinned worker ran tile %d on goroutine %d, not the caller's", c.i, c.g)
				}
				if pin && w < runtime.NumCPU() && c.cpus != nil && (len(c.cpus) != 1 || c.cpus[0] != w) {
					t.Fatalf("workers %d: worker %d ran tile %d on a thread pinned to CPUs %v, want [%d]", workers, w, c.i, c.cpus, w)
				}
			}
		}
	}
	if calls, err := runEach(0, 2, false, owner); err != nil || len(calls) != 0 {
		t.Fatalf("no tiles: %d calls, %v", len(calls), err)
	}
}

// A one-worker unpinned Run calls Exec on the caller's goroutine, for
// every tile of a dependent chain.
func TestOneUnpinnedWorkerRunsOnCaller(t *testing.T) {
	const steps = 5
	in := grid.NewBox([]int{0}, []int{16})
	var tiles []*spacetime.Tile
	for s := 0; s < steps; s++ {
		tiles = append(tiles, spacetime.NewTileFromBox(in, s, 1, in))
	}
	caller, ran := goid(), 0
	_, err := engine.Run(tiles, engine.Config{Workers: 1, Order: 1, Exec: func(_ int, tile *spacetime.Tile) int64 {
		if g := goid(); g != caller {
			t.Errorf("tile %d ran on goroutine %d, not the caller's %d", tile.ID, g, caller)
		}
		ran++
		return 0
	}})
	if err != nil || ran != steps {
		t.Fatalf("ran %d of %d tiles: %v", ran, steps, err)
	}
}

// A pinned run's threads end with it: goroutines that run afterwards may
// use every CPU the process could before, not the one CPU a worker's
// thread was pinned to.
func TestPinnedRunLeavesNoPinnedThread(t *testing.T) {
	before := threadCPUs()
	if len(before) < 2 {
		t.Skip("thread affinity unreadable, or one CPU only")
	}
	for r := 0; r < 50; r++ {
		if err := engine.Each(2, 2, true, func(i int) int { return i }, func(int) {}); err != nil {
			t.Fatal(err)
		}
		done := make(chan []int)
		for k := 0; k < 4; k++ {
			go func() {
				runtime.Gosched()
				done <- threadCPUs()
			}()
		}
		for k := 0; k < 4; k++ {
			if got := <-done; len(got) != len(before) {
				t.Fatalf("after a pinned run a goroutine ran on a thread pinned to CPUs %v, want %v", got, before)
			}
		}
	}
}

// A panic in f comes back as a *PanicError naming the tile, and the
// process stays up.
func TestEachPanicIsAPanicError(t *testing.T) {
	for workers := 1; workers <= 3; workers++ {
		err := engine.Each(9, workers, false, func(i int) int { return i }, func(i int) {
			if i == 4 {
				panic("tile four")
			}
		})
		var pe *engine.PanicError
		if !errors.As(err, &pe) || pe.Tile != 4 || pe.Value != "tile four" {
			t.Fatalf("workers %d: got %v, want a *PanicError for tile 4", workers, err)
		}
	}
}
