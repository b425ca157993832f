package cachesim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// recordBlocks installs a tap on c that appends every block it is charged.
func recordBlocks(c *Cache) *[]int64 {
	var blocks []int64
	c.SetObserver(func(base, n int64) {
		for end := base + n; base < end; base++ {
			blocks = append(blocks, base)
		}
	})
	return &blocks
}

func TestSimulateOPTBasics(t *testing.T) {
	// Belady on the classic sequence with 2 lines:
	// a b c a b c -> misses a,b,c (cold) then: at c's miss evict the block
	// used farthest in future. OPT gets 2 hits out of the last 3.
	s := SimulateOPT([]int64{1, 2, 3, 1, 2, 3}, 2)
	if s.Accesses != 6 || s.Hits+s.Misses != 6 {
		t.Errorf("stats = %+v", s)
	}
	// OPT: miss 1, miss 2, miss 3 (evict 2: next use of 1 is sooner),
	// hit 1, miss 2 (evict 1 or 3... 1 never used again -> evict 1), hit 3.
	if s.Misses != 4 {
		t.Errorf("misses = %d, want 4 (OPT)", s.Misses)
	}
}

func TestSimulateOPTEdgeCases(t *testing.T) {
	if s := SimulateOPT(nil, 4); s.Accesses != 0 {
		t.Error("nil trace should be empty")
	}
	if s := SimulateOPT([]int64{1, 2}, 0); s.Accesses != 0 {
		t.Error("zero lines should be empty")
	}
	// Single repeated block: 1 miss, rest hits.
	if s := SimulateOPT([]int64{5, 5, 5, 5}, 1); s.Misses != 1 || s.Hits != 3 {
		t.Errorf("repeat: %+v", s)
	}
}

// TestPropOPTNeverWorseThanLRU is the defining property of MIN: on any
// trace and any capacity, OPT misses <= LRU misses.
func TestPropOPTNeverWorseThanLRU(t *testing.T) {
	f := func(seed int64, linesRaw uint8, nRaw uint16) bool {
		lines := int64(linesRaw%12) + 1
		n := int(nRaw%1500) + 10
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{Capacity: lines * 4, Block: 4})
		if err != nil {
			return false
		}
		blocks := recordBlocks(c)
		for i := 0; i < n; i++ {
			c.Access(rng.Int63n(lines*16), 1)
		}
		lru := c.Stats()
		opt := SimulateOPT(*blocks, lines)
		if opt.Accesses != lru.Accesses {
			return false
		}
		if opt.Misses > lru.Misses {
			return false
		}
		// Every distinct block misses once under any policy.
		slices.Sort(*blocks)
		return opt.Misses >= int64(len(slices.Compact(*blocks)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropLRUWithinSleatorTarjan checks LRU(k) <= OPT(k/2)·2 + compulsory
// slack on random traces — a loose empirical form of the competitive
// bound that justifies the model substitution.
func TestPropLRUWithinSleatorTarjan(t *testing.T) {
	f := func(seed int64) bool {
		lines := int64(8)
		rng := rand.New(rand.NewSource(seed))
		c, err := New(Config{Capacity: lines * 4, Block: 4})
		if err != nil {
			return false
		}
		blocks := recordBlocks(c)
		for i := 0; i < 2000; i++ {
			c.Access(rng.Int63n(lines*12), 1)
		}
		lru := c.Stats()
		optHalf := SimulateOPT(*blocks, lines/2)
		// LRU with k lines vs OPT with k/2 lines: competitive ratio 2.
		return float64(lru.Misses) <= 2*float64(optHalf.Misses)+float64(lines)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestClassification(t *testing.T) {
	c := mustCache(t, Config{Capacity: 64, Block: 8}) // 8 lines: no evictions below

	c.ClassifyRange(0, 16, ClassState)          // blocks 0,1
	c.ClassifyRange(16, 8, ClassCrossBuffer)    // block 2
	c.ClassifyRange(24, 8, ClassInternalBuffer) // block 3
	c.Access(0, 1)                              // state miss
	c.Access(8, 1)                              // state miss
	c.Access(16, 1)                             // cross miss
	c.Access(24, 1)                             // internal miss
	c.Access(100, 1)                            // unknown miss
	c.Access(0, 1)                              // hit: no class count
	cm := c.ClassMisses()
	if cm.Get(ClassState) != 2 || cm.Get(ClassCrossBuffer) != 1 ||
		cm.Get(ClassInternalBuffer) != 1 || cm.Get(ClassUnknown) != 1 {
		t.Errorf("class misses = %+v", cm)
	}
	if cm.Total() != c.Stats().Misses {
		t.Errorf("class total %d != misses %d", cm.Total(), c.Stats().Misses)
	}
	c.ResetStats()
	if c.ClassMisses().Total() != 0 {
		t.Error("ResetStats did not clear class misses")
	}
}

func TestClassifyRangeIgnoresEmpty(t *testing.T) {
	c := mustCache(t, Config{Capacity: 32, Block: 8})
	c.ClassifyRange(0, 0, ClassState)
	c.ClassifyRange(0, -5, ClassState)
	c.Access(0, 1)
	if c.ClassMisses().Get(ClassState) != 0 {
		t.Error("empty range classified")
	}
	if c.ClassMisses().Get(ClassUnknown) != 0 {
		t.Error("classification active without registered ranges")
	}
}

func TestClassString(t *testing.T) {
	if ClassState.String() != "state" || ClassCrossBuffer.String() != "cross-buffer" ||
		ClassInternalBuffer.String() != "internal-buffer" || ClassUnknown.String() != "unknown" {
		t.Error("class names wrong")
	}
}
