package hierarchy

import (
	"math/rand"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// stream builds a block stream with streaming-like structure: sequential
// runs, a hot set, and random revisits.
func stream(rng *rand.Rand, n int, nblocks int64) []int64 {
	out := make([]int64, 0, n)
	cur := int64(0)
	for len(out) < n {
		switch rng.Intn(4) {
		case 0:
			for r := 0; r < 8 && len(out) < n; r++ {
				out = append(out, cur)
				cur = (cur + 1) % nblocks
			}
		case 1:
			out = append(out, rng.Int63n(8))
		case 2:
			cur = rng.Int63n(nblocks)
			out = append(out, cur)
		default:
			out = append(out, rng.Int63n(nblocks))
		}
	}
	return out
}

func lv(capacity, block, ways int64, pol cachesim.Policy) Level {
	return Level{Capacity: capacity, Block: block, Ways: ways, Policy: pol}
}

func TestConfigValidate(t *testing.T) {
	good := Config{L1: lv(256, 16, 0, cachesim.LRU), L2: lv(1024, 64, 4, cachesim.LRU)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []Config{
		{L1: lv(0, 16, 0, cachesim.LRU), L2: lv(1024, 16, 0, cachesim.LRU)},   // zero L1
		{L1: lv(250, 16, 0, cachesim.LRU), L2: lv(1024, 16, 0, cachesim.LRU)}, // misaligned L1
		{L1: lv(256, 16, 3, cachesim.LRU), L2: lv(1024, 16, 0, cachesim.LRU)}, // 16 lines % 3
		{L1: lv(256, 16, 0, cachesim.LRU), L2: lv(1024, 24, 0, cachesim.LRU)}, // 24 % 16
		{L1: lv(256, 64, 0, cachesim.LRU), L2: lv(1024, 16, 0, cachesim.LRU)}, // L2 block < L1
		{L1: lv(256, 16, 0, cachesim.Policy(9)), L2: lv(1024, 16, 0, cachesim.LRU)},
		{L1: lv(256, 16, 0, cachesim.LRU), L2: lv(1024, 64, 0, cachesim.LRU), Mode: Exclusive}, // unequal blocks
		{L1: lv(256, 16, 0, cachesim.LRU), L2: lv(1024, 16, 0, cachesim.LRU), Mode: Mode(7)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// TestSimL1MatchesSingleLevel: the hierarchy's L1 behaves exactly like the
// corresponding single-level cachesim cache — the L2 never influences what
// the L1 holds in either inclusion mode.
func TestSimL1MatchesSingleLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blocks := stream(rng, 30000, 300)
	for _, mode := range []Mode{NonInclusive, Exclusive} {
		for _, pol := range []cachesim.Policy{cachesim.LRU, cachesim.FIFO} {
			for _, ways := range []int64{0, 1, 4} {
				cfg := Config{
					L1:   lv(32*16, 16, ways, pol),
					L2:   lv(128*16, 16, 0, cachesim.LRU),
					Mode: mode,
				}
				sim, err := NewSim(cfg)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := cachesim.New(cachesim.Config{Capacity: 32 * 16, Block: 16, Ways: int(ways), Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				for _, blk := range blocks {
					sim.Access(blk)
					ref.AccessBlock(blk, false)
				}
				if got, want := sim.L1Stats().Misses, ref.Stats().Misses; got != want {
					t.Errorf("%v %s ways=%d: L1 %d misses, single-level %d", mode, pol, ways, got, want)
				}
				if s := sim.L1Stats(); s.Hits+s.Misses != s.Accesses {
					t.Errorf("%v: inconsistent L1 stats %+v", mode, s)
				}
				if s := sim.L2Stats(); s.Accesses != sim.L1Stats().Misses {
					t.Errorf("%v: L2 accesses %d != L1 misses %d", mode, s.Accesses, sim.L1Stats().Misses)
				}
			}
		}
	}
}

// TestExclusiveEqualsBigLRU pins the classic exclusive-hierarchy identity:
// with both levels fully associative and LRU, an exclusive (n1, n2)-line
// hierarchy holds exactly the n1+n2 most recently used blocks, so its
// memory transfers (L2 misses) equal those of a single LRU cache of
// n1+n2 lines.
func TestExclusiveEqualsBigLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	blocks := stream(rng, 40000, 400)
	for _, geom := range [][2]int64{{8, 24}, {16, 48}, {1, 63}} {
		n1, n2 := geom[0], geom[1]
		sim, err := NewSim(Config{
			L1:   lv(n1*16, 16, 0, cachesim.LRU),
			L2:   lv(n2*16, 16, 0, cachesim.LRU),
			Mode: Exclusive,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := trace.NewProfiler()
		for _, blk := range blocks {
			sim.Access(blk)
			p.Touch(blk)
		}
		want := p.Curve().Misses(n1 + n2)
		if got := sim.L2Stats().Misses; got != want {
			t.Errorf("(%d,%d): exclusive hierarchy %d memory misses, %d-line LRU %d",
				n1, n2, got, n1+n2, want)
		}
	}
}

// TestExclusiveResidencyDisjoint checks the exclusivity invariant: a block
// never lives in both levels, and the combined hierarchy never exceeds
// n1+n2 resident blocks.
func TestExclusiveResidencyDisjoint(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sim, err := NewSim(Config{
		L1:   lv(8*16, 16, 2, cachesim.LRU),
		L2:   lv(32*16, 16, 4, cachesim.FIFO),
		Mode: Exclusive,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range stream(rng, 10000, 200) {
		sim.Access(blk)
		if sim.l1.bank.Contains(blk) && sim.l2.bank.Contains(blk) {
			t.Fatalf("access %d: block %d resident in both levels", i, blk)
		}
		if n := sim.l1.bank.Len() + sim.l2.bank.Len(); n > 8+32 {
			t.Fatalf("access %d: %d resident blocks exceed capacity", i, n)
		}
	}
}

// TestSimCoarsening: with an L2 block four times the L1 block, an L1 miss
// must touch the containing L2 line. A sequential walk over 4k L1 blocks
// through a tiny L1 misses every L1 access but only every 4th access
// starts a new L2 line.
func TestSimCoarsening(t *testing.T) {
	sim, err := NewSim(Config{
		L1: lv(16, 16, 0, cachesim.LRU),    // 1 line: every new block misses
		L2: lv(64*64, 64, 0, cachesim.LRU), // 64 lines of 4 L1 blocks each
	})
	if err != nil {
		t.Fatal(err)
	}
	for blk := int64(0); blk < 256; blk++ {
		sim.Access(blk)
	}
	if got := sim.L1Stats().Misses; got != 256 {
		t.Errorf("L1 misses = %d, want 256", got)
	}
	if got := sim.L2Stats().Misses; got != 64 {
		t.Errorf("L2 misses = %d, want 64 (one per coarse line)", got)
	}
	if got := sim.L2Stats().Hits; got != 192 {
		t.Errorf("L2 hits = %d, want 192", got)
	}
}

// simAMAT evaluates a cost model over a two-level simulator's counters,
// the pointwise value every one-pass AMAT is held to.
func simAMAT(sim *Sim, cm CostModel) float64 {
	return cm.AMAT(sim.L1Stats().Accesses, sim.L1Stats().Misses, sim.L2Stats().Misses)
}

func TestSimAMAT(t *testing.T) {
	sim, err := NewSim(Config{L1: lv(16, 16, 0, cachesim.LRU), L2: lv(32, 16, 0, cachesim.LRU)})
	if err != nil {
		t.Fatal(err)
	}
	if got := simAMAT(sim, DefaultCostModel); got != 0 {
		t.Errorf("empty AMAT = %v, want 0", got)
	}
	for _, blk := range []int64{0, 1, 0, 1, 2, 0} {
		sim.Access(blk)
	}
	cm := CostModel{L1Hit: 1, L2Hit: 10, Mem: 100}
	l1, l2 := sim.L1Stats(), sim.L2Stats()
	want := (float64(l1.Accesses) + 10*float64(l1.Misses) + 100*float64(l2.Misses)) / float64(l1.Accesses)
	if got := simAMAT(sim, cm); got != want {
		t.Errorf("AMAT = %v, want %v", got, want)
	}
}

// TestSimulateLogWindow: warmup accesses populate both levels but are not
// counted; an empty window counts nothing.
func TestSimulateLogWindow(t *testing.T) {
	l := trace.NewLog()
	for blk := int64(0); blk < 8; blk++ {
		l.RecordRun(blk, 1)
	}
	l.MarkWindow()
	for blk := int64(0); blk < 8; blk++ {
		l.RecordRun(blk, 1)
	}
	cfg := Config{L1: lv(2*16, 16, 0, cachesim.LRU), L2: lv(16*16, 16, 0, cachesim.LRU)}
	sim, err := SimulateLog(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.L1Stats().Accesses; got != 8 {
		t.Errorf("windowed accesses = %d, want 8", got)
	}
	// The warmup walked all 8 blocks into the L2 (capacity 16 lines), so
	// the measured window hits in L2 on every L1 miss: zero memory misses.
	if got := sim.L2Stats().Misses; got != 0 {
		t.Errorf("L2 misses = %d, want 0 after warm L2", got)
	}

	empty := trace.NewLog()
	empty.RecordRun(1, 1)
	empty.MarkWindow()
	sim, err = SimulateLog(empty, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.L1Stats().Accesses; got != 0 {
		t.Errorf("empty window counted %d accesses", got)
	}
}
