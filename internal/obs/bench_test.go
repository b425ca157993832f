package obs

import (
	"testing"
	"time"
)

// BenchmarkHistogramRecord measures the lock-free recording hot path —
// the cost per-job and per-batch instrumentation pays on every
// observation. Gated by CI's paired base/head bench-regression job.
func BenchmarkHistogramRecord(b *testing.B) {
	b.Run("enabled", func(b *testing.B) {
		h := &Histogram{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(int64(i))
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var h *Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Record(int64(i))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		h := &Histogram{}
		b.RunParallel(func(pb *testing.PB) {
			v := int64(0)
			for pb.Next() {
				h.Record(v)
				v++
			}
		})
	})
}

// BenchmarkTimerObserve measures the timer path after the histogram
// sibling conversion: registry timers route lock-free, standalone timers
// keep the mutex.
func BenchmarkTimerObserve(b *testing.B) {
	b.Run("registry", func(b *testing.B) {
		t := NewRegistry().Timer("t")
		for i := 0; i < b.N; i++ {
			t.Observe(time.Duration(i))
		}
	})
	b.Run("standalone", func(b *testing.B) {
		var t Timer
		for i := 0; i < b.N; i++ {
			t.Observe(time.Duration(i))
		}
	})
}
