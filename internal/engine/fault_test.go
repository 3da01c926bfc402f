package engine_test

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"nustencil/internal/engine"
	"nustencil/internal/grid"
	"nustencil/internal/spacetime"
)

// Fault-injection harness: every test drives Run through a serial chain of
// trivial tiles with an Exec wrapper that panics, blocks, or delays at a
// chosen tile, and asserts the engine's failure semantics — typed panic
// errors, prompt cancellation, and no leaked goroutines. The subtests are
// named "dynamic", the scheduler's name, so recorded test IDs stay valid.

// chainTiles builds n trivial single-cell tiles forming a strict serial
// chain (tile i depends on tile i-1, injected via Config.Deps), owners
// round-robin over workers. The serial chain makes execution order — and
// therefore cancellation promptness — deterministic.
func chainTiles(n, workers int) ([]*spacetime.Tile, [][]int) {
	interior := grid.NewBox([]int{0}, []int{n})
	tiles := make([]*spacetime.Tile, n)
	deps := make([][]int, n)
	for i := range tiles {
		tiles[i] = spacetime.NewTileFromBox(grid.NewBox([]int{i}, []int{i + 1}), 0, 1, interior)
		tiles[i].Owner = i % workers
		if i > 0 {
			deps[i] = []int{i - 1}
		}
	}
	spacetime.AssignIDs(tiles)
	return tiles, deps
}

// faultAt wraps inner with a fault injected when tile `tile` executes:
// first an optional delay, then an optional block on a channel, then an
// optional panic.
type faultAt struct {
	tile   int
	delay  time.Duration
	block  <-chan struct{}
	panicV any
}

func (f faultAt) wrap(inner engine.Exec) engine.Exec {
	return func(w int, t *spacetime.Tile) int64 {
		if t.ID == f.tile {
			if f.delay > 0 {
				time.Sleep(f.delay)
			}
			if f.block != nil {
				<-f.block
			}
			if f.panicV != nil {
				panic(f.panicV)
			}
		}
		return inner(w, t)
	}
}

// goroutineBaseline samples the goroutine count once the runtime settles.
func goroutineBaseline() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			return n
		} else {
			n = m
		}
	}
	return n
}

// assertNoGoroutineLeak waits for the goroutine count to return to the
// baseline; workers and the context watcher tear down asynchronously after
// the run returns, so it polls with a generous deadline.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d alive, baseline %d\n%s", n, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// A panicking Exec must surface as a *PanicError naming the tile and
// worker, leave the process alive with no stray goroutines, and leave the
// engine reusable for a subsequent clean run.
func TestFaultPanicIsolated(t *testing.T) {
	t.Run("dynamic", func(t *testing.T) {
		base := goroutineBaseline()
		const n, workers, bad = 64, 4, 17
		tiles, deps := chainTiles(n, workers)
		var executed atomic.Int64
		count := func(int, *spacetime.Tile) int64 { executed.Add(1); return 1 }
		_, err := engine.Run(tiles, engine.Config{
			Workers: workers,
			Deps:    deps,
			Exec:    faultAt{tile: bad, panicV: "kernel exploded"}.wrap(count),
		})
		var pe *engine.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v (%T), want *engine.PanicError", err, err)
		}
		if pe.Tile != bad {
			t.Errorf("PanicError.Tile = %d, want %d", pe.Tile, bad)
		}
		if pe.Worker < 0 || pe.Worker >= workers {
			t.Errorf("PanicError.Worker = %d out of range", pe.Worker)
		}
		if pe.Value != "kernel exploded" || len(pe.Stack) == 0 {
			t.Errorf("PanicError carries value %v, %d stack bytes", pe.Value, len(pe.Stack))
		}
		if got := executed.Load(); got != bad {
			t.Errorf("executed %d tiles before the panic, want exactly %d (serial chain)", got, bad)
		}
		assertNoGoroutineLeak(t, base)

		// The process is alive and the engine still works.
		tiles2, deps2 := chainTiles(n, workers)
		stats, err := engine.Run(tiles2, engine.Config{Workers: workers, Deps: deps2, Exec: count})
		if err != nil || stats.TotalUpdates != n {
			t.Fatalf("clean run after panic: %v, updates %v", err, stats)
		}
	})
}

// A cancelled context must stop a 1000-tile run long before it finishes:
// the serial chain below takes >= 2s uninterrupted, the cancel lands after
// ~10ms, and the run must return context.Canceled within a small bounded
// delay having executed only a fraction of the tiles.
func TestFaultCancellationPrompt(t *testing.T) {
	t.Run("dynamic", func(t *testing.T) {
		base := goroutineBaseline()
		const n, workers = 1000, 4
		tiles, deps := chainTiles(n, workers)
		var executed atomic.Int64
		slow := func(int, *spacetime.Tile) int64 {
			executed.Add(1)
			time.Sleep(2 * time.Millisecond)
			return 1
		}
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(10 * time.Millisecond)
			cancel()
		}()
		start := time.Now()
		_, err := engine.Run(tiles, engine.Config{
			Workers: workers,
			Deps:    deps,
			Ctx:     ctx,
			Exec:    slow,
		})
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed > time.Second {
			t.Errorf("run returned after %v, cancellation was not prompt (full run takes >= 2s)", elapsed)
		}
		if got := executed.Load(); got >= n/2 {
			t.Errorf("executed %d of %d tiles after an early cancel", got, n)
		}
		assertNoGoroutineLeak(t, base)
	})
}

// An already-expired context must refuse the run before executing anything.
func TestFaultPreCancelled(t *testing.T) {
	t.Run("dynamic", func(t *testing.T) {
		tiles, deps := chainTiles(16, 2)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var executed atomic.Int64
		_, err := engine.Run(tiles, engine.Config{
			Workers: 2,
			Deps:    deps,
			Ctx:     ctx,
			Exec:    func(int, *spacetime.Tile) int64 { executed.Add(1); return 1 },
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if executed.Load() != 0 {
			t.Errorf("pre-cancelled run executed %d tiles", executed.Load())
		}
	})
}

// A context deadline bounds the run's wall clock.
func TestFaultDeadline(t *testing.T) {
	t.Run("dynamic", func(t *testing.T) {
		tiles, deps := chainTiles(500, 3)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
		defer cancel()
		start := time.Now()
		_, err := engine.Run(tiles, engine.Config{
			Workers: 3,
			Deps:    deps,
			Ctx:     ctx,
			Exec: func(int, *spacetime.Tile) int64 {
				time.Sleep(2 * time.Millisecond)
				return 1
			},
		})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("deadline honored only after %v", elapsed)
		}
	})
}

// Parked workers must wake on cancellation: every tile is owned by worker
// 0, so workers 1..7 go idle and park; worker 0 then blocks inside Exec.
// Cancelling must (via the Unpark broadcast) let the parked workers exit
// while worker 0 is still stuck, and the run must return as soon as the
// blocked tile is released — with the cancellation error, not success.
func TestFaultCancelWakesParkedWorkers(t *testing.T) {
	base := goroutineBaseline()
	const n, workers = 8, 8
	tiles, deps := chainTiles(n, workers)
	for _, tile := range tiles {
		tile.Owner = 0
	}
	gate := make(chan struct{})
	entered := make(chan struct{})
	exec := func(w int, tile *spacetime.Tile) int64 {
		if tile.ID == 0 {
			close(entered)
			<-gate
		}
		return 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := engine.Run(tiles, engine.Config{Workers: workers, Deps: deps, Ctx: ctx, Exec: exec})
		done <- err
	}()
	<-entered
	cancel()
	// Give the broadcast time to wake the parked workers, then release the
	// blocked one; the run must finish with the cancellation error.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after the blocked tile was released")
	}
	assertNoGoroutineLeak(t, base)
}

// A panic inside Exec while peer workers are parked must not strand them:
// the chain gives every other worker a dependency on the panicking tile.
func TestFaultPanicReleasesWaiters(t *testing.T) {
	t.Run("dynamic", func(t *testing.T) {
		base := goroutineBaseline()
		tiles, deps := chainTiles(64, 8)
		_, err := engine.Run(tiles, engine.Config{
			Workers: 8,
			Deps:    deps,
			Exec: faultAt{tile: 0, panicV: errors.New("first tile dies")}.wrap(
				func(int, *spacetime.Tile) int64 { return 1 }),
		})
		var pe *engine.PanicError
		if !errors.As(err, &pe) || pe.Tile != 0 {
			t.Fatalf("err = %v, want *engine.PanicError at tile 0", err)
		}
		assertNoGoroutineLeak(t, base)
	})
}
