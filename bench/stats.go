package bench

import (
	"fmt"
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. An empty sample yields NaN.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Median returns the middle sample of xs (the mean of the two middle
// samples for an even count). An empty sample yields NaN.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// TailBeyond is the number of samples a reported tail percentile must
// leave above it: fewer and the percentile is a handful of outliers.
const TailBeyond = 10

// TailPercentile returns the percentile to report as the tail of n
// samples: want, if at least TailBeyond samples lie beyond it, otherwise
// the highest whole percentile that leaves TailBeyond beyond it, and never
// below the median.
func TailPercentile(n, want int) int {
	if n <= 2*TailBeyond {
		return 50
	}
	return max(50, min(want, 100-(100*TailBeyond+n-1)/n))
}

// TailNote describes the tail percentile reported for n samples.
func TailNote(n, want int) string {
	p := TailPercentile(n, want)
	if p == want {
		return fmt.Sprintf("p%d, n=%d", p, n)
	}
	return fmt.Sprintf("p%d: too few samples for p%d, n=%d", p, want, n)
}

// Quartiles returns the three cut points dividing xs into quarters with
// the exclusive method (the default of Python's statistics.quantiles),
// so spreads computed here match ones computed from the printed results
// elsewhere. It needs at least two samples; fewer yield NaNs.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	s := sorted(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// Spread is the interquartile range of xs as a share of its median: the
// run-to-run noise a regression bound must exceed.
func Spread(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	return (q3 - q1) / math.Abs(q2)
}
