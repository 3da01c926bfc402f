package stream

import (
	"testing"
	"time"
)

func TestMeasureReturnsAllKernels(t *testing.T) {
	rs := Measure(Config{Elements: 1 << 16, Trials: 1})
	want := []string{"COPY", "SCALE", "ADD", "TRIAD"}
	if len(rs) != len(want) {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		if r.Kernel != want[i] {
			t.Errorf("kernel %d = %s, want %s", i, r.Kernel, want[i])
		}
		if r.GBps() <= 0 {
			t.Errorf("%s bandwidth = %v", r.Kernel, r.GBps())
		}
		if r.Seconds <= 0 || r.Bytes <= 0 {
			t.Errorf("%s degenerate result %+v", r.Kernel, r)
		}
	}
}

func TestCopyAccounting(t *testing.T) {
	r := Copy(Config{Elements: 1 << 14, Trials: 1})
	// COPY moves 16 bytes per element (8 read + 8 write).
	if r.Bytes != 16*(1<<14) {
		t.Errorf("COPY bytes = %d", r.Bytes)
	}
}

func TestMeasureMultiWorker(t *testing.T) {
	rs := Measure(Config{Elements: 1 << 16, Workers: 4, Trials: 1})
	for _, r := range rs {
		if r.GBps() <= 0 {
			t.Errorf("%s with 4 workers: %v GB/s", r.Kernel, r.GBps())
		}
	}
}

func TestResultZeroSafe(t *testing.T) {
	if (Result{}).GBps() != 0 {
		t.Error("zero result should report 0 GB/s")
	}
}

func TestPeakDP(t *testing.T) {
	g := PeakDP(1, 10*time.Millisecond)
	// Any real machine does between 0.1 and 1000 GFLOPS on one core.
	if g < 0.1 || g > 1000 {
		t.Errorf("PeakDP = %v GFLOPS", g)
	}
	if g2 := PeakDP(0, 0); g2 <= 0 {
		t.Errorf("defaulted PeakDP = %v", g2)
	}
	// Several workers at once: under -race this checks that they share no
	// state.
	if g4 := PeakDP(4, 2*time.Millisecond); g4 <= 0 {
		t.Errorf("4-worker PeakDP = %v", g4)
	}
}
