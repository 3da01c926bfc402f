package bench

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("Median odd = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("Median even = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Median(nil)) || !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty samples must yield NaN")
	}
}

// TestTailPercentileLeavesTenBeyond checks the tail rule: the reported
// percentile leaves at least TailBeyond samples above it, is the highest
// whole percentile that does, and is p99 once there are enough samples.
func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	beyond := func(n, p int) int {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		return n - rank
	}
	for n := 2*TailBeyond + 1; n <= 3000; n++ {
		p := TailPercentile(n, 99)
		if p < 50 || p > 99 {
			t.Fatalf("n=%d: percentile %d out of [50, 99]", n, p)
		}
		if beyond(n, p) < TailBeyond {
			t.Fatalf("n=%d: p%d leaves %d samples beyond, want ≥ %d", n, p, beyond(n, p), TailBeyond)
		}
		if p < 99 && beyond(n, p+1) >= TailBeyond {
			t.Fatalf("n=%d: p%d is not the highest valid percentile", n, p)
		}
	}
	for _, c := range []struct{ n, want, p int }{
		{1000, 99, 99}, {5000, 99, 99}, {500, 99, 98}, {24, 99, 58}, {20, 99, 50}, {3, 99, 50},
		{300, 90, 90}, {100, 90, 90}, {99, 90, 89}, {24, 90, 58},
	} {
		if got := TailPercentile(c.n, c.want); got != c.p {
			t.Errorf("TailPercentile(%d, %d) = %d, want %d", c.n, c.want, got, c.p)
		}
	}
}

// TestQuartilesMatchPython pins the exclusive method against values from
// Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3.5, 1.25}, [3]float64{0.6875, 2.375, 4.0625}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("Quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if q1, _, _ := Quartiles([]float64{1}); !math.IsNaN(q1) {
		t.Error("one sample must yield NaN quartiles")
	}
}
