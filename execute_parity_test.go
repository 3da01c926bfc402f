package nustencil

import (
	"context"
	"testing"
)

// parityConfig is the problem every parity case solves. Workers=1 makes
// every observable deterministic: tile→worker assignment and per-worker
// update counts are fixed, so two runs of the same spec must agree bit
// for bit.
func parityConfig() Config {
	return Config{
		Dims:      []int{22, 22, 22},
		Timesteps: 4,
		Scheme:    NuCORALS,
		Workers:   1,
		NUMANodes: 2,
	}
}

func paritySolver(t *testing.T, cfg Config) *Solver {
	t.Helper()
	s, err := NewSolver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetInitial(func(pt []int) float64 {
		v := 1.0
		for k, c := range pt {
			v += float64(c) * float64(k+1) * 0.001
		}
		return v
	})
	return s
}

// TestLegacyVariantsMatchExecute checks Run, the one convenience wrapper
// left of the legacy Run* method family, against the Execute call it
// stands for.
func TestLegacyVariantsMatchExecute(t *testing.T) {
	t.Run("Run", func(t *testing.T) { checkRunMatchesExecute(t, parityConfig()) })
}

// TestLegacyVariantsMatchExecuteStatic repeats the check under the static
// executor with two workers: owner-assigned tiles make the per-worker
// split deterministic there too.
func TestLegacyVariantsMatchExecuteStatic(t *testing.T) {
	cfg := parityConfig()
	cfg.Workers = 2
	cfg.StaticSchedule = true
	checkRunMatchesExecute(t, cfg)
}

// checkRunMatchesExecute runs Run and Execute(nil, RunSpec{Timesteps:
// cfg.Timesteps}) on twin solvers and requires bit-identical grid states
// and the same deterministic report fields (Seconds is wall clock).
func checkRunMatchesExecute(t *testing.T, cfg Config) {
	t.Helper()
	runSolver, execSolver := paritySolver(t, cfg), paritySolver(t, cfg)
	rep, err := runSolver.Run()
	if err != nil {
		t.Fatal(err)
	}
	out, err := execSolver.Execute(nil, RunSpec{Timesteps: cfg.Timesteps})
	if err != nil {
		t.Fatal(err)
	}
	got := out.Report
	if rep.Scheme != got.Scheme || rep.Workers != got.Workers || rep.Timesteps != got.Timesteps ||
		rep.Updates != got.Updates || rep.Tiles != got.Tiles || rep.FlopsPerUpdate != got.FlopsPerUpdate {
		t.Errorf("report: Run %+v vs Execute %+v", rep, got)
	}
	if len(rep.UpdatesPerWorker) != len(got.UpdatesPerWorker) {
		t.Fatalf("UpdatesPerWorker: Run %v vs Execute %v", rep.UpdatesPerWorker, got.UpdatesPerWorker)
	}
	for i := range rep.UpdatesPerWorker {
		if rep.UpdatesPerWorker[i] != got.UpdatesPerWorker[i] {
			t.Fatalf("per-worker split diverges at %d: Run %v vs Execute %v", i, rep.UpdatesPerWorker, got.UpdatesPerWorker)
		}
	}
	a, b := runSolver.Export(nil), execSolver.Export(nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("grid state diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestExecuteSpecOutputs pins which outputs a spec yields: Trace, Timeline
// and Counters are present exactly when the spec asks for them (a
// timeline width implies a trace), and each agrees with the report.
func TestExecuteSpecOutputs(t *testing.T) {
	const steps = 4
	for _, spec := range []RunSpec{
		{Timesteps: steps},
		{Timesteps: steps, Trace: true},
		{Timesteps: steps, TimelineWidth: 40},
		{Timesteps: steps, Counters: true, Machine: XeonX7550, SamplePeriod: -1},
		{Timesteps: steps, Trace: true, TimelineWidth: 40, Counters: true, SamplePeriod: -1},
	} {
		out, err := paritySolver(t, parityConfig()).Execute(nil, spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		traced := spec.Trace || spec.TimelineWidth > 0
		if (out.Trace != nil) != traced {
			t.Errorf("%+v: trace present = %v", spec, out.Trace != nil)
		}
		if (out.Timeline != "") != (spec.TimelineWidth > 0) {
			t.Errorf("%+v: timeline = %q", spec, out.Timeline)
		}
		if (out.Counters != nil) != spec.Counters {
			t.Errorf("%+v: counters present = %v", spec, out.Counters != nil)
		}
		if out.Trace != nil {
			if sum := out.Trace.Summary(); sum.Tiles != out.Report.Tiles || sum.Updates != out.Report.Updates {
				t.Errorf("%+v: trace %d tiles/%d updates vs report %d/%d",
					spec, sum.Tiles, sum.Updates, out.Report.Tiles, out.Report.Updates)
			}
		}
		if out.Counters != nil && out.Counters.Updates() != out.Report.Updates {
			t.Errorf("%+v: counters %d updates vs report %d", spec, out.Counters.Updates(), out.Report.Updates)
		}
	}
}

// TestExecuteZeroSteps pins the explicit-zero contract: a zero-timestep
// spec is a no-op, not "use the configured default".
func TestExecuteZeroSteps(t *testing.T) {
	s := paritySolver(t, parityConfig())
	out, err := s.Execute(nil, RunSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Report.Updates != 0 || out.Report.Tiles != 0 {
		t.Fatalf("zero-step spec ran work: %+v", out.Report)
	}
	if len(out.Report.UpdatesPerWorker) != parityConfig().Workers {
		t.Fatalf("zero-step report lost its per-worker shape: %+v", out.Report)
	}
}

// TestExecutePoisonsOnCancel pins the failure contract: an expired
// context fails the run, poisons the solver, and later Execute calls
// refuse with ErrPoisoned.
func TestExecutePoisonsOnCancel(t *testing.T) {
	s := paritySolver(t, parityConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Execute(ctx, RunSpec{Timesteps: 4}); err == nil {
		t.Fatal("cancelled Execute succeeded")
	}
	if err := s.Err(); err == nil {
		t.Fatal("solver not poisoned after cancelled Execute")
	}
	if _, err := s.Execute(nil, RunSpec{Timesteps: 4}); err == nil {
		t.Fatal("poisoned solver accepted another Execute")
	}
}
