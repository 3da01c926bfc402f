// Package histo provides a fixed-size log₂-bucketed duration histogram
// cheap enough for per-worker hot-path shards. It is a leaf package (no
// intra-repo dependencies) so the counter layer (perfcount), the
// distributed runtime, the public API and the job server can all use it
// without import cycles.
package histo

import (
	"math"
	"math/bits"
	"time"
)

// HistBuckets is the number of log₂ latency buckets. Bucket b counts
// observations d with floor(log₂(d/ns)) == b, so the boundaries run 1 ns,
// 2 ns, 4 ns, … — bucket 43 starts at ~2.4 hours, far beyond any tile.
const HistBuckets = 44

// Hist is a fixed-size log₂-bucketed histogram of tile latencies, cheap
// enough to live inside each worker's private counter shard: observing is
// one bits.Len64 and three increments — no allocation, no atomics.
type Hist struct {
	Counts [HistBuckets]int64 `json:"counts"`
	// N and Sum are the observation count and the total duration (the
	// Prometheus _count/_sum pair).
	N   int64         `json:"n"`
	Sum time.Duration `json:"sum_ns"`
}

// BucketOf returns the bucket index of d: floor(log₂ d) with d clamped to
// [1ns, 2^HistBuckets ns), so non-positive durations land in bucket 0 and
// absurdly long ones in the last bucket.
func BucketOf(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len64(uint64(d)) - 1
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketBounds returns the half-open duration range [lo, hi) bucket b
// counts. Bucket 0 also absorbs non-positive observations, the last bucket
// everything past its lower bound.
func BucketBounds(b int) (lo, hi time.Duration) {
	return time.Duration(int64(1) << b), time.Duration(int64(1) << (b + 1))
}

// Observe adds one duration.
func (h *Hist) Observe(d time.Duration) {
	h.Counts[BucketOf(d)]++
	h.N++
	h.Sum += d
}

// Merge folds o into h — worker-local histograms into the run total.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.N += o.N
	h.Sum += o.Sum
}

// Mean returns the average observed duration (0 when empty).
func (h *Hist) Mean() time.Duration {
	if h.N == 0 {
		return 0
	}
	return h.Sum / time.Duration(h.N)
}

// Quantile estimates the q-quantile as the exclusive upper bound of the
// bucket holding the ceil(q·N)-th smallest observation — a conservative
// overestimate within the 2× resolution a log₂ histogram can promise. q is
// clamped to [0, 1]; an empty histogram yields 0.
func (h *Hist) Quantile(q float64) time.Duration {
	if h.N == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(h.N)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for b, c := range h.Counts {
		cum += c
		if cum >= rank {
			_, hi := BucketBounds(b)
			return hi
		}
	}
	return 0
}
