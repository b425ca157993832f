package hierarchy

import (
	"math/rand"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// benchLog records a 400k-access stream with streaming-like structure and
// a warmed window, the shape the schedule harness produces.
func benchLog() *trace.Log {
	rng := rand.New(rand.NewSource(99))
	blocks := stream(rng, 400000, 512)
	l := trace.NewLog()
	for i, blk := range blocks {
		if i == 50000 {
			l.MarkWindow()
		}
		l.RecordRun(blk, 1)
	}
	return l
}

// benchSpec is the E20 grid shape: 4 L1 design points x 3 L2 design
// points, mixed policies and a coarse L2 block.
func benchSpec() HierSpec {
	return HierSpec{
		Block: 16,
		L1s: []Level{
			lv(256, 16, 1, cachesim.LRU),
			lv(256, 16, 0, cachesim.LRU),
			lv(512, 16, 1, cachesim.LRU),
			lv(512, 16, 0, cachesim.LRU),
		},
		L2s: []Level{
			lv(2048, 16, 0, cachesim.LRU),
			lv(4096, 64, 8, cachesim.LRU),
			lv(4096, 64, 4, cachesim.FIFO),
		},
	}
}

// BenchmarkProfileHier measures the one-pass grid evaluation: one log
// replayed through the L1 organisation profilers, whose miss mask feeds
// one L2 lane per L1 point.
func BenchmarkProfileHier(b *testing.B) {
	l := benchLog()
	spec := benchSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileHier(l, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimAccess measures the two-level simulator's inner loop on a
// set-associative L1 in front of a fully-associative LRU L2.
func BenchmarkSimAccess(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	blocks := stream(rng, 1<<16, 512)
	cfg := Config{
		L1: lv(512, 16, 4, cachesim.LRU),
		L2: lv(4096, 64, 0, cachesim.LRU),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := NewSim(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range blocks {
			sim.Access(blk)
		}
	}
}

// BenchmarkSimulateLog measures pointwise two-level replay of one grid
// point — the per-point cost ProfileHier amortises away.
func BenchmarkSimulateLog(b *testing.B) {
	l := benchLog()
	cfg := Config{
		L1: lv(512, 16, 0, cachesim.LRU),
		L2: lv(4096, 64, 8, cachesim.LRU),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateLog(l, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// benchProcLog records a 2-processor interleaved stream of the same shape
// as benchLog, split into per-processor block ranges with a shared hot set.
func benchProcLog(procs int) *trace.ProcLog {
	rng := rand.New(rand.NewSource(98))
	pl, _ := trace.NewProcLog(procs)
	cur := 0
	n := 400000
	for i := 0; i < n; i++ {
		if rng.Intn(64) == 0 {
			cur = rng.Intn(procs)
		}
		blk := int64(cur)*512 + rng.Int63n(512)
		if rng.Intn(4) == 0 {
			blk = rng.Int63n(16)
		}
		if i == 50000 {
			pl.MarkWindow()
		}
		pl.RecordRun(cur, blk, 1)
	}
	return pl
}

// BenchmarkProfileShared measures the one-pass shared-L2 grid: per-proc
// private L1 replicas for every L1 point feeding the shared L2 profilers.
func BenchmarkProfileShared(b *testing.B) {
	pl := benchProcLog(4)
	hs := benchSpec()
	spec := SharedSpec{Block: hs.Block, Procs: 4, L1s: hs.L1s, L2s: hs.L2s}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ProfileShared(pl, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateSharedLog measures pointwise shared-hierarchy replay of
// one grid point — the per-point cost ProfileShared amortises away.
func BenchmarkSimulateSharedLog(b *testing.B) {
	pl := benchProcLog(4)
	cfg := SharedConfig{
		Procs: 4,
		L1:    lv(512, 16, 0, cachesim.LRU),
		L2:    lv(4096, 64, 8, cachesim.LRU),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SimulateSharedLog(pl, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
