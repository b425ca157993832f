package obs

import (
	"sync"
	"testing"
	"time"
)

// TestHistogramExactUnderConcurrency hammers one histogram from many
// goroutines and checks the exact-count invariants: lock-free recording
// must lose nothing. Run under -race this also pins the
// concurrency-safety claim.
func TestHistogramExactUnderConcurrency(t *testing.T) {
	h := &Histogram{}
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(int64(i % 1000))
			}
		}()
	}
	wg.Wait()
	s := h.Stats()
	if s.Count != goroutines*per {
		t.Errorf("count: got %d, want %d", s.Count, goroutines*per)
	}
	wantSum := int64(goroutines) * per / 1000 * (999 * 1000 / 2)
	if s.Sum != wantSum {
		t.Errorf("sum: got %d, want %d", s.Sum, wantSum)
	}
	if s.Min != 0 || s.Max != 999 {
		t.Errorf("min/max: got %d/%d, want 0/999", s.Min, s.Max)
	}
	var bucketTotal int64
	for _, b := range s.Buckets {
		bucketTotal += b.Count
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket counts sum to %d, want %d", bucketTotal, s.Count)
	}
}

// TestHistogramBuckets pins the log2 bucketing: bucket 0 is exactly {0},
// bucket i holds [2^(i-1), 2^i), and negative observations clamp to 0.
func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	h.Record(0)
	h.Record(-5) // clamps to 0
	h.Record(1)
	h.Record(2)
	h.Record(3)
	h.Record(4)
	h.Record(7)
	h.Record(8)
	s := h.Stats()
	want := []HistogramBucket{{Le: 0, Count: 2}, {Le: 1, Count: 1}, {Le: 3, Count: 2}, {Le: 7, Count: 2}, {Le: 15, Count: 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets: got %+v, want %+v", s.Buckets, want)
	}
	for i, b := range s.Buckets {
		if b != want[i] {
			t.Errorf("bucket %d: got %+v, want %+v", i, b, want[i])
		}
	}
	if s.Min != 0 || s.Max != 8 || s.Count != 8 || s.Sum != 25 {
		t.Errorf("stats: %+v", s)
	}
}

// TestHistogramPercentileGolden pins the quantile estimates on fixed
// observation sets — the interpolation and min/max clamping must stay
// deterministic or obsreport diffs churn.
func TestHistogramPercentileGolden(t *testing.T) {
	t.Run("uniform-1-100", func(t *testing.T) {
		h := &Histogram{}
		for v := int64(1); v <= 100; v++ {
			h.Record(v)
		}
		s := h.Stats()
		// p50 interpolates inside the [32,63] bucket; p90 and p99 land in
		// the [64,127] bucket and clamp to the observed max.
		if s.P50 != 50 || s.P90 != 100 || s.P99 != 100 {
			t.Errorf("percentiles: got p50=%d p90=%d p99=%d, want 50/100/100", s.P50, s.P90, s.P99)
		}
	})
	t.Run("bimodal", func(t *testing.T) {
		h := &Histogram{}
		for i := 0; i < 90; i++ {
			h.Record(1000)
		}
		for i := 0; i < 10; i++ {
			h.Record(10000)
		}
		s := h.Stats()
		// p50 interpolates below the observed min and clamps up to it;
		// p99 interpolates above the observed max and clamps down.
		if s.P50 != 1000 || s.P90 != 1023 || s.P99 != 10000 {
			t.Errorf("percentiles: got p50=%d p90=%d p99=%d, want 1000/1023/10000", s.P50, s.P90, s.P99)
		}
	})
	t.Run("empty-and-single", func(t *testing.T) {
		var empty HistogramStats
		if empty.Quantile(0.5) != 0 {
			t.Error("empty stats must quantile to 0")
		}
		h := &Histogram{}
		h.Record(42)
		s := h.Stats()
		if s.P50 != 42 || s.P90 != 42 || s.P99 != 42 {
			t.Errorf("single observation: got p50=%d p90=%d p99=%d, want 42 for all", s.P50, s.P90, s.P99)
		}
		if s.Quantile(0) != 42 || s.Quantile(1) != 42 {
			t.Error("q=0 and q=1 must return min and max")
		}
	})
}

// TestHistogramNilNoOp checks every Histogram method on a nil receiver.
func TestHistogramNilNoOp(t *testing.T) {
	var h *Histogram
	h.Record(5)
	h.Observe(time.Second)
	h.Start()()
	if s := h.Stats(); s.Count != 0 || s.Buckets != nil {
		t.Errorf("nil Stats not empty: %+v", s)
	}
}

// TestHistogramRecordZeroAlloc: the enabled hot path must not allocate —
// per-job and per-batch recording rides inside the <2% overhead budget.
func TestHistogramRecordZeroAlloc(t *testing.T) {
	h := &Histogram{}
	allocs := testing.AllocsPerRun(100, func() {
		h.Record(123456)
		h.Observe(time.Microsecond)
	})
	if allocs != 0 {
		t.Errorf("enabled Record allocates: %.1f allocs/op, want 0", allocs)
	}
}
