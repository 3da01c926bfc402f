package histo

import (
	"testing"
	"time"
)

func TestBucketOfEdges(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 1},
		{4, 2}, {7, 2}, {8, 3},
		{1023, 9}, {1024, 10},
		{1 << 20, 20}, {1<<21 - 1, 20},
		{time.Duration(1) << (HistBuckets - 1), HistBuckets - 1},
		{time.Duration(1)<<62 + 12345, HistBuckets - 1},
	}
	for _, c := range cases {
		if got := BucketOf(c.d); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestBucketBoundsRoundTrip(t *testing.T) {
	for b := 0; b < HistBuckets-1; b++ {
		lo, hi := BucketBounds(b)
		if lo != time.Duration(int64(1)<<b) {
			t.Fatalf("bucket %d lo = %d, want %d", b, lo, int64(1)<<b)
		}
		if hi != 2*lo {
			t.Fatalf("bucket %d hi = %d, want %d", b, hi, 2*lo)
		}
		if got := BucketOf(lo); got != b {
			t.Errorf("BucketOf(lo=%d) = %d, want %d", lo, got, b)
		}
		if got := BucketOf(hi - 1); got != b {
			t.Errorf("BucketOf(hi-1=%d) = %d, want %d", hi-1, got, b)
		}
		if got := BucketOf(hi); got != b+1 {
			t.Errorf("BucketOf(hi=%d) = %d, want %d", hi, got, b+1)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h Hist
	// One observation per bucket 0..3: 1ns, 3ns, 5ns, 9ns.
	for _, d := range []time.Duration{1, 3, 5, 9} {
		h.Observe(d)
	}
	cases := []struct {
		q    float64
		want time.Duration // exclusive upper bound of the rank's bucket
	}{
		{-1, 2}, {0, 2}, {0.25, 2},
		{0.26, 4}, {0.5, 4},
		{0.75, 8},
		{0.76, 16}, {1, 16}, {2, 16},
	}
	for _, c := range cases {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%g) = %d, want %d", c.q, got, c.want)
		}
	}
	var empty Hist
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %d, want 0", got)
	}
}

func TestHistMergeEqualsSingle(t *testing.T) {
	obs := []time.Duration{1, 2, 3, 100, 1e6, 7e9, 0, -3}
	var whole, a, b Hist
	for i, d := range obs {
		whole.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	a.Merge(&b)
	if a != whole {
		t.Errorf("merged hist %+v != single hist %+v", a, whole)
	}
	if a.N != int64(len(obs)) {
		t.Errorf("N = %d, want %d", a.N, len(obs))
	}
}

func TestHistMean(t *testing.T) {
	var h Hist
	if h.Mean() != 0 {
		t.Errorf("empty Mean = %d, want 0", h.Mean())
	}
	h.Observe(10)
	h.Observe(30)
	if got := h.Mean(); got != 20 {
		t.Errorf("Mean = %d, want 20", got)
	}
}
