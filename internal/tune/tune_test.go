package tune

import (
	"context"
	"errors"
	"testing"
	"time"

	"nustencil"
)

func TestSpaceSizeAndEnumeration(t *testing.T) {
	space := Space{
		{Name: "a", Values: []int{1, 2}},
		{Name: "b", Values: []int{10, 20, 30}},
	}
	if space.Size() != 6 {
		t.Fatalf("Size = %d", space.Size())
	}
	seen := map[[2]int]bool{}
	results := GridSearch(context.Background(), space, func(_ context.Context, s Setting) (float64, error) {
		seen[[2]int{s["a"], s["b"]}] = true
		return float64(s["a"]*100 + s["b"]), nil
	}, Options{Repeats: 1})
	if len(results) != 6 || len(seen) != 6 {
		t.Fatalf("visited %d, results %d", len(seen), len(results))
	}
	// Best first: a=2,b=30 scores 230.
	if results[0].Setting["a"] != 2 || results[0].Setting["b"] != 30 {
		t.Errorf("best = %v", results[0])
	}
	// Distinct Setting maps per result (no aliasing of the scratch map).
	if results[0].Setting["a"] == results[len(results)-1].Setting["a"] &&
		results[0].Setting["b"] == results[len(results)-1].Setting["b"] {
		t.Error("settings alias each other")
	}
}

func TestGridSearchBestOfRepeats(t *testing.T) {
	calls := 0
	results := GridSearch(context.Background(), Space{{Name: "x", Values: []int{1}}},
		func(context.Context, Setting) (float64, error) {
			calls++
			return float64(calls), nil // improves each repeat
		}, Options{Repeats: 4})
	if calls != 4 {
		t.Fatalf("calls = %d", calls)
	}
	if results[0].Gupdates != 4 {
		t.Errorf("best-of = %v", results[0].Gupdates)
	}
}

func TestGridSearchErrorsRankLast(t *testing.T) {
	results := GridSearch(context.Background(), Space{{Name: "x", Values: []int{1, 2, 3}}},
		func(_ context.Context, s Setting) (float64, error) {
			if s["x"] == 2 {
				return 0, errors.New("boom")
			}
			return float64(s["x"]), nil
		}, Options{Repeats: 1})
	if results[len(results)-1].Err == nil {
		t.Errorf("failed candidate not last: %v", results)
	}
	if results[0].Err != nil {
		t.Errorf("best has error: %v", results[0])
	}
}

func TestGridSearchBudget(t *testing.T) {
	results := GridSearch(context.Background(), Space{{Name: "x", Values: []int{1, 2, 3, 4, 5}}},
		func(context.Context, Setting) (float64, error) {
			time.Sleep(20 * time.Millisecond)
			return 1, nil
		}, Options{Repeats: 1, Budget: 30 * time.Millisecond})
	if len(results) >= 5 {
		t.Errorf("budget not enforced: %d candidates ran", len(results))
	}
	if len(results) == 0 {
		t.Error("budget killed everything")
	}
}

// A candidate whose measurement never returns on its own must be cancelled
// by its per-candidate budget: the sweep finishes, the hung candidate
// surfaces as an error result ranked last, and the good candidates are
// still measured.
func TestGridSearchCandidateBudgetUnhangsSweep(t *testing.T) {
	start := time.Now()
	results := GridSearch(context.Background(), Space{{Name: "x", Values: []int{1, 2, 3}}},
		func(ctx context.Context, s Setting) (float64, error) {
			if s["x"] == 2 { // pathological candidate: blocks until cancelled
				<-ctx.Done()
				return 0, ctx.Err()
			}
			return float64(s["x"]), nil
		}, Options{Repeats: 2, CandidateBudget: 50 * time.Millisecond})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sweep took %v, candidate budget did not bound the hang", elapsed)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	last := results[len(results)-1]
	if last.Setting["x"] != 2 || !errors.Is(last.Err, context.DeadlineExceeded) {
		t.Errorf("hung candidate = %+v, want x=2 with deadline error", last)
	}
	if results[0].Err != nil || results[0].Gupdates != 3 {
		t.Errorf("best = %+v, want x=3 measured normally", results[0])
	}
}

// Cancelling the sweep context skips the remaining candidates outright.
func TestGridSearchSweepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	results := GridSearch(ctx, Space{{Name: "x", Values: []int{1, 2, 3, 4}}},
		func(context.Context, Setting) (float64, error) {
			calls++
			if calls == 2 {
				cancel()
			}
			return 1, nil
		}, Options{Repeats: 1})
	if calls != 2 || len(results) != 2 {
		t.Errorf("calls=%d results=%d, want the sweep to stop after the cancel", calls, len(results))
	}
}

func TestSchemeSpacesAndMeasurement(t *testing.T) {
	w := Workload{Dims: []int{34, 34, 34}, Timesteps: 4, Workers: 2}
	for _, scheme := range []string{"nuCORALS", "nuCATS", "CATS", "PLuTo"} {
		space, err := SpaceFor(scheme, w)
		if err != nil || space.Size() == 0 {
			t.Fatalf("%s space: %v", scheme, err)
		}
		measure, err := MeasureFor(scheme, w)
		if err != nil {
			t.Fatalf("%s measure: %v", scheme, err)
		}
		// One real measurement with the first setting of the space.
		s := Setting{}
		for _, p := range space {
			s[p.Name] = p.Values[0]
		}
		g, err := measure(context.Background(), s)
		if err != nil || g <= 0 {
			t.Errorf("%s measurement: %v Gup/s, %v", scheme, g, err)
		}
	}
	if _, err := SpaceFor("bogus", w); err == nil {
		t.Error("unknown scheme space accepted")
	}
	if _, err := MeasureFor("bogus", w); err == nil {
		t.Error("unknown scheme measure accepted")
	}
	// A key the scheme does not take is an error, not a silent run of the
	// scheme's defaults.
	measure, err := MeasureFor("nuCATS", w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := measure(context.Background(), Setting{"bogus": 1}); err == nil {
		t.Error("MeasureFor measured a setting with an unknown key")
	}
	counted, err := MeasureCountedFor("nuCATS", w, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := counted(context.Background(), Setting{"bogus": 1}); err == nil {
		t.Error("MeasureCountedFor measured a setting with an unknown key")
	}
	// An expired candidate context must abort a real measurement instead of
	// running it to completion.
	measure, err = MeasureFor("nuCORALS", w)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Setting{"baseHeight": 4, "baseExtent": 16, "baseUnit": 64}
	if _, err := measure(ctx, s); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled measurement returned %v, want context.Canceled", err)
	}
}

// The timed Execute of a candidate is not its solver's first: the cold
// run, which builds the plan, goes before it untimed, so every setting is
// ranked by a warm run.
func TestExecuteTimesAWarmRun(t *testing.T) {
	w := Workload{Dims: []int{18, 18, 18}, Timesteps: 3, Workers: 2}
	for _, scheme := range []string{"nuCATS", "nuCORALS"} {
		out, solver, err := execute(context.Background(), scheme, w, Setting{}, nustencil.RunSpec{})
		if err != nil {
			t.Fatal(err)
		}
		if out.Report.Timesteps != w.Timesteps {
			t.Errorf("%s: timed %d steps, want %d", scheme, out.Report.Timesteps, w.Timesteps)
		}
		if got := solver.StepsRun(); got != 2*w.Timesteps {
			t.Errorf("%s: the solver ran %d steps in all, want the %d of a warm-up run and the timed run", scheme, got, 2*w.Timesteps)
		}
	}
}
