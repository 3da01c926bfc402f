package nustencil

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"nustencil/internal/engine"
	"nustencil/internal/spacetime"
)

// panicWrapNth injects a panic on the nth tile execution (1-based), whatever
// tile that happens to be — the solver-level fault-injection seam. Counting
// executions rather than naming a tile ID keeps the injection independent of
// how coarsely a scheme tiles the plan.
func panicWrapNth(n int64) func(engine.Exec) engine.Exec {
	var calls atomic.Int64
	return func(inner engine.Exec) engine.Exec {
		return func(w int, t *spacetime.Tile) int64 {
			if calls.Add(1) == n {
				panic("injected kernel fault")
			}
			return inner(w, t)
		}
	}
}

func TestNegativeTimestepsRejected(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{10, 10}, Timesteps: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Execute(nil, RunSpec{Timesteps: -1}); err == nil {
		t.Fatal("negative timesteps accepted")
	}
	if s.Err() != nil {
		t.Errorf("rejected argument poisoned the solver: %v", s.Err())
	}
	// Zero timesteps keeps returning the zero report.
	out, err := s.Execute(nil, RunSpec{})
	if rep := out.Report; err != nil || rep.Updates != 0 || rep.Seconds != 0 || len(rep.UpdatesPerWorker) != 2 {
		t.Errorf("zero-step report = %+v, %v", rep, err)
	}
}

// Every error return of Execute must carry a report with only the
// identity fields set: a nonzero Seconds on a failed run would make
// Gupdates look like a real (meaningless) rate.
func TestErrorReportZeroed(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{12, 12}, Timesteps: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := s.Execute(ctx, RunSpec{Timesteps: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	rep := out.Report
	if rep.Scheme != NuCORALS || rep.Workers != 2 || rep.Timesteps != 4 || rep.FlopsPerUpdate == 0 {
		t.Errorf("identity fields missing from error report: %+v", rep)
	}
	if rep.Seconds != 0 || rep.Updates != 0 || rep.Tiles != 0 || rep.Imbalance != 0 {
		t.Errorf("error report carries measurements: %+v", rep)
	}
	if rep.Gupdates() != 0 || rep.GFLOPS() != 0 {
		t.Errorf("error report yields a rate: %v Gup/s", rep.Gupdates())
	}
}

// A run interrupted by cancellation poisons the solver; Import restores it.
func TestCancelPoisonsAndImportRestores(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{12, 12}, Timesteps: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(func(pt []int) float64 { return float64(pt[0] - pt[1]) })
	if _, err := s.Execute(nil, RunSpec{Timesteps: 2}); err != nil {
		t.Fatal(err)
	}
	snapshot := s.Export(nil)
	probe := []int{6, 6}
	want := s.Value(probe)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Execute(ctx, RunSpec{Timesteps: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	if err := s.Err(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Err() = %v, want ErrPoisoned", err)
	}
	if _, err := s.Run(); !errors.Is(err, ErrPoisoned) {
		t.Errorf("Run on poisoned solver: %v, want ErrPoisoned", err)
	}
	if v := s.Value(probe); !math.IsNaN(v) {
		t.Errorf("Value on poisoned solver = %v, want NaN", v)
	}
	if out := s.Export(nil); out != nil {
		t.Errorf("Export on poisoned solver returned %d values, want nil", len(out))
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); !errors.Is(err, ErrPoisoned) {
		t.Errorf("Save on poisoned solver: %v, want ErrPoisoned", err)
	}

	if err := s.Import(snapshot); err != nil {
		t.Fatal(err)
	}
	if err := s.Err(); err != nil {
		t.Fatalf("Import did not clear the poison: %v", err)
	}
	if got := s.Value(probe); got != want {
		t.Errorf("restored value %v, want %v", got, want)
	}
	if _, err := s.Run(); err != nil {
		t.Errorf("Run after restore: %v", err)
	}
}

// A panicking kernel must surface as *engine.PanicError and poison the
// solver, for every scheme; Load restores it.
func TestKernelPanicPoisonsAllSchemes(t *testing.T) {
	for _, scheme := range Schemes() {
		t.Run(string(scheme), func(t *testing.T) {
			mk := func() *Solver {
				s, err := NewSolver(Config{Dims: []int{14, 14}, Timesteps: 4, Scheme: scheme, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				s.SetInitial(func(pt []int) float64 { return float64(pt[0]*3 + pt[1]) })
				return s
			}

			// Checkpoint a healthy solver to restore from later.
			healthy := mk()
			if _, err := healthy.Execute(nil, RunSpec{Timesteps: 2}); err != nil {
				t.Fatal(err)
			}
			var cp bytes.Buffer
			if err := healthy.Save(&cp); err != nil {
				t.Fatal(err)
			}
			wantProbe := healthy.Value([]int{7, 7})

			s := mk()
			if _, err := s.Execute(nil, RunSpec{Timesteps: 2}); err != nil {
				t.Fatal(err)
			}
			// Panic on the plan's first tile execution: it fires no
			// matter how coarsely the scheme tiles these 2 steps, and
			// peers that complete other tiles concurrently leave
			// multi-tile plans genuinely half-mutated.
			s.execWrap = panicWrapNth(1)
			_, err := s.Execute(nil, RunSpec{Timesteps: 2})
			var pe *engine.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %v (%T), want *engine.PanicError", err, err)
			}
			if pe.Tile < 0 {
				t.Errorf("PanicError.Tile = %d, want a real tile ID", pe.Tile)
			}
			if err := s.Err(); !errors.Is(err, ErrPoisoned) {
				t.Fatalf("solver not poisoned after kernel panic: %v", err)
			}
			if _, err := s.Run(); !errors.Is(err, ErrPoisoned) {
				t.Errorf("poisoned Run: %v, want ErrPoisoned", err)
			}

			// Load restores the checkpointed state and clears the poison.
			s.execWrap = nil
			if err := s.Load(bytes.NewReader(cp.Bytes())); err != nil {
				t.Fatal(err)
			}
			if err := s.Err(); err != nil {
				t.Fatalf("Load did not clear the poison: %v", err)
			}
			if got := s.Value([]int{7, 7}); got != wantProbe {
				t.Errorf("restored value %v, want %v", got, wantProbe)
			}
			if _, err := s.Execute(nil, RunSpec{Timesteps: 2}); err != nil {
				t.Errorf("run after restore: %v", err)
			}
		})
	}
}

// Cancellation mid-run (not pre-cancelled): a deadline lands
// while a long plan executes, the error is the context's, and the solver
// poisons.
func TestRunContextDeadlineMidRun(t *testing.T) {
	s, err := NewSolver(Config{Dims: []int{40, 40, 40}, Timesteps: 40, Workers: 2, Scheme: NuCORALS})
	if err != nil {
		t.Fatal(err)
	}
	// Slow every tile down so the deadline reliably lands mid-plan.
	s.execWrap = func(inner engine.Exec) engine.Exec {
		return func(w int, tile *spacetime.Tile) int64 {
			time.Sleep(200 * time.Microsecond)
			return inner(w, tile)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	_, err = s.Execute(ctx, RunSpec{Timesteps: 40})
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if err := s.Err(); !errors.Is(err, ErrPoisoned) {
		t.Errorf("solver not poisoned: %v", err)
	}
}
