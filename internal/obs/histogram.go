package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets covers [1ns, 2^histBuckets ns): bucket i counts
// observations in [2^i, 2^(i+1)) ns, which spans sub-microsecond
// events up to ~18-minute stages at 40 buckets.
const histBuckets = 40

// histogram is a concurrent-safe power-of-two latency histogram.
// Observations are nanosecond durations; buckets double in width, so
// quantile estimates carry at most a 2x bucket error — plenty for
// spotting stage-cost shifts and load imbalance, at the cost of two
// atomic adds per observation and no allocation.
type histogram struct {
	count   atomic.Uint64
	sumNs   atomic.Int64
	minNs   atomic.Int64
	maxNs   atomic.Int64
	buckets [histBuckets]atomic.Uint64
}

// newHistogram returns an empty histogram.
func newHistogram() *histogram {
	h := &histogram{}
	h.minNs.Store(math.MaxInt64)
	return h
}

// bucketFor maps a duration to its bucket index.
func bucketFor(ns int64) int {
	if ns < 1 {
		ns = 1
	}
	b := bits.Len64(uint64(ns)) - 1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// observe records one duration in nanoseconds. Negative durations
// (clock steps) are clamped to the lowest bucket.
func (h *histogram) observe(ns int64) {
	if h == nil {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sumNs.Add(ns)
	for {
		cur := h.minNs.Load()
		if ns >= cur || h.minNs.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketFor(ns)].Add(1)
}

// quantile returns an estimate of the q-th quantile (0 <= q <= 1) in
// nanoseconds: the upper edge of the bucket holding the rank, i.e.
// an estimate never below the true value by more than one bucket
// width. Returns 0 for an empty histogram.
func (h *histogram) quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			upper := int64(1) << uint(i+1)
			if max := h.maxNs.Load(); upper > max {
				upper = max
			}
			return upper
		}
	}
	return h.maxNs.Load()
}

// summary condenses the histogram for the report.
func (h *histogram) summary() TimingSummary {
	if h == nil || h.count.Load() == 0 {
		return TimingSummary{}
	}
	count := h.count.Load()
	sum := h.sumNs.Load()
	return TimingSummary{
		Count:   count,
		TotalMs: float64(sum) / 1e6,
		MeanUs:  float64(sum) / float64(count) / 1e3,
		MinUs:   float64(h.minNs.Load()) / 1e3,
		P50Us:   float64(h.quantile(0.50)) / 1e3,
		P90Us:   float64(h.quantile(0.90)) / 1e3,
		P99Us:   float64(h.quantile(0.99)) / 1e3,
		MaxUs:   float64(h.maxNs.Load()) / 1e3,
	}
}
