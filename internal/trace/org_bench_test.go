package trace_test

import (
	"math/rand"
	"testing"

	"streamsched/internal/trace"
)

// benchStream builds a deterministic stream with streaming-like structure
// (sequential runs, strides, hot sets) for profiling benchmarks.
func benchStream(n int, nblocks int64) []int64 {
	rng := rand.New(rand.NewSource(99))
	return randomStream(rng, n, nblocks)
}

// BenchmarkProfileOrgs measures multi-organisation profiling: one replay
// of a 400k-access trace driving seven organisations (the E12 grid shape)
// at once.
func BenchmarkProfileOrgs(b *testing.B) {
	stream := benchStream(400000, 512)
	log := trace.NewLog()
	for _, blk := range stream {
		log.RecordRun(blk, 1)
	}
	specs := []trace.OrgSpec{
		{Sets: 1, FIFOWays: []int64{32, 64, 128}},
		{Sets: 4, FIFOWays: []int64{8}, LRUWays: []int64{8}},
		{Sets: 8, FIFOWays: []int64{8, 4}, LRUWays: []int64{8, 4}},
		{Sets: 16, FIFOWays: []int64{8, 4}, LRUWays: []int64{8, 4}},
		{Sets: 32, FIFOWays: []int64{4, 1}, LRUWays: []int64{4, 1}},
		{Sets: 64, FIFOWays: []int64{1}, LRUWays: []int64{1}},
		{Sets: 128, FIFOWays: []int64{1}, LRUWays: []int64{1}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.ProfileOrgs(log, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFIFOReplay measures multiplexed FIFO replay alone: one
// OrgProfilers of a single FIFO spec, three way counts.
func BenchmarkFIFOReplay(b *testing.B) {
	stream := benchStream(400000, 512)
	specs := []trace.OrgSpec{{Sets: 4, FIFOWays: []int64{4, 16, 64}, LRUWays: []int64{4, 16, 64}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := trace.NewOrgProfilers(specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range stream {
			p.Touch(blk)
		}
		if c := p.Curves()[0].FIFO; c.Accesses == 0 {
			b.Fatal("empty curve")
		}
	}
}
