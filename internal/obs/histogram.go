package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the fixed bucket count: bucket i holds values v with
// bits.Len64(v) == i, i.e. bucket 0 is exactly {0} and bucket i >= 1 is
// [2^(i-1), 2^i). 64 buckets of one atomic counter each cover the whole
// non-negative int64 range, so recording never branches on a bucket
// search — one bits.Len64 and one atomic add.
const histBuckets = 65

// Histogram is a fixed log2-bucketed distribution of non-negative int64
// observations (durations in nanoseconds, sizes, counts). Recording is
// lock-free — per-bucket atomic counters plus atomic count/sum/min/max —
// so hot paths (per-job queue waits, per-batch pipeline latencies) can
// record per event. The nil Histogram discards observations, like every
// other metric here.
//
// Buckets are powers of two: exact counts and sums, percentiles read off
// the bucket boundaries with linear interpolation (and clamped to the
// observed min/max), deterministic for a given multiset of observations.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// min is stored offset by +1 so the zero value means "unset": a
	// genuine minimum of 0 is stored as 1. Values are non-negative, so
	// max's zero value needs no sentinel.
	min     atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Record adds one observation. Negative values clamp to zero (durations
// and sizes are non-negative; a clock hiccup must not corrupt a bucket
// index).
func (h *Histogram) Record(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
	for {
		cur := h.min.Load()
		if cur != 0 && cur <= v+1 {
			break
		}
		if h.min.CompareAndSwap(cur, v+1) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(d time.Duration) { h.Record(int64(d)) }

// Start begins timing one operation and returns the function that stops
// the clock and records the elapsed duration. On a nil Histogram it
// returns a shared no-op without reading the clock or allocating.
func (h *Histogram) Start() func() {
	if h == nil {
		return nopStop
	}
	start := time.Now()
	return func() { h.Observe(time.Since(start)) }
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Stats captures the histogram's exported summary. Safe to call
// concurrently with Record; after writers quiesce the counts are exact.
func (h *Histogram) Stats() HistogramStats {
	if h == nil {
		return HistogramStats{}
	}
	s := HistogramStats{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if m := h.min.Load(); m > 0 {
		s.Min = m - 1
	}
	for i := range h.buckets {
		if c := h.buckets[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{Le: bucketUpper(i), Count: c})
		}
	}
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// bucketUpper returns bucket i's inclusive upper bound: 0 for bucket 0,
// 2^i - 1 otherwise.
func bucketUpper(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return int64(^uint64(0) >> 1) // MaxInt64: the top bucket is open-ended
	}
	return 1<<i - 1
}

// bucketLower returns the inclusive lower bound of the bucket whose upper
// bound is le.
func bucketLower(le int64) int64 {
	if le <= 1 {
		return le // buckets {0} and {1} are single-valued
	}
	return (le + 1) / 2
}

// HistogramBucket is one non-empty bucket: its inclusive upper value
// bound and the number of observations that landed in it (not
// cumulative; Prometheus exposition accumulates on the way out).
type HistogramBucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramStats is a Histogram's exported summary: exact count, sum,
// min, and max, the non-empty buckets in ascending bound order, and the
// p50/p90/p99 estimates snapshots and reports lead with.
type HistogramStats struct {
	Count   int64             `json:"count"`
	Sum     int64             `json:"sum"`
	Min     int64             `json:"min"`
	Max     int64             `json:"max"`
	P50     int64             `json:"p50"`
	P90     int64             `json:"p90"`
	P99     int64             `json:"p99"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Mean returns the mean observation, or 0 with no observations.
func (s HistogramStats) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the buckets:
// find the bucket holding the target rank, interpolate linearly inside
// it, and clamp to the observed [Min, Max]. Deterministic for a given
// bucket multiset, so percentile goldens and obsreport diffs are stable.
func (s HistogramStats) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	cum := 0.0
	for _, b := range s.Buckets {
		c := float64(b.Count)
		if cum+c >= rank {
			lo, hi := bucketLower(b.Le), b.Le
			v := int64(float64(lo) + (rank-cum)/c*float64(hi-lo) + 0.5)
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum += c
	}
	return s.Max
}
