package trace_test

import (
	"testing"

	"streamsched/internal/obs"
	"streamsched/internal/trace"
)

// BenchmarkObsOverhead pins the cost of the instrumentation layer on the
// hottest profiling path: the BenchmarkProfileOrgs workload (a 400k-access
// trace, seven organisations, one replay) with metrics disabled (the
// nil-registry no-op path — this must track BenchmarkProfileOrgs itself)
// and enabled (a live registry capturing counters and timers). CI's
// benchmark gate holds both within the usual tolerance, so a regression
// in the disabled path — the one every un-instrumented caller pays —
// fails the build.
func BenchmarkObsOverhead(b *testing.B) {
	stream := benchStream(400000, 512)
	specs := []trace.OrgSpec{
		{Sets: 1, FIFOWays: []int64{32, 64, 128}},
		{Sets: 4, FIFOWays: []int64{8}, LRUWays: []int64{8}},
		{Sets: 8, FIFOWays: []int64{8, 4}, LRUWays: []int64{8, 4}},
		{Sets: 16, FIFOWays: []int64{8, 4}, LRUWays: []int64{8, 4}},
		{Sets: 32, FIFOWays: []int64{4, 1}, LRUWays: []int64{4, 1}},
		{Sets: 64, FIFOWays: []int64{1}, LRUWays: []int64{1}},
		{Sets: 128, FIFOWays: []int64{1}, LRUWays: []int64{1}},
	}
	run := func(b *testing.B, reg *obs.Registry) {
		log := trace.NewLog()
		log.SetMetrics(reg)
		for _, blk := range stream {
			log.RecordRun(blk, 1)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := trace.ProfileOrgs(log, specs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, obs.NewRegistry()) })
}
