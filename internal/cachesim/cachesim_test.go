package cachesim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%+v): %v", cfg, err)
	}
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Capacity: 0, Block: 8},
		{Capacity: 64, Block: 0},
		{Capacity: 60, Block: 8},
		{Capacity: 64, Block: 8, Ways: -1},
		{Capacity: 64, Block: 8, Ways: 16},
		{Capacity: 64, Block: 8, Ways: 3},
		{Capacity: 64, Block: 8, Policy: Policy(9)},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
	good := []Config{
		{Capacity: 64, Block: 8},
		{Capacity: 64, Block: 8, Ways: 4},
		{Capacity: 64, Block: 8, Ways: 8, Policy: FIFO},
		{Capacity: 8, Block: 8},
	}
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
}

func TestSequentialScanMisses(t *testing.T) {
	// Scanning N words once costs exactly ceil(N/B) misses.
	c := mustCache(t, Config{Capacity: 1024, Block: 16})
	const n = 555
	for i := int64(0); i < n; i++ {
		c.AccessWord(i, false)
	}
	want := (n + 15) / 16
	if got := c.Stats().Misses; got != int64(want) {
		t.Errorf("scan misses = %d, want %d", got, want)
	}
	if got := c.Stats().Compulsory; got != int64(want) {
		t.Errorf("compulsory = %d, want %d", got, want)
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// A working set of exactly M words: after the first pass, repeated
	// passes are all hits.
	c := mustCache(t, Config{Capacity: 256, Block: 8})
	for pass := 0; pass < 5; pass++ {
		for i := int64(0); i < 256; i++ {
			c.AccessWord(i, false)
		}
	}
	s := c.Stats()
	if s.Misses != 256/8 {
		t.Errorf("misses = %d, want %d", s.Misses, 256/8)
	}
	if s.Hits != 5*256-256/8 {
		t.Errorf("hits = %d, want %d", s.Hits, 5*256-256/8)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Capacity 2 blocks of 1 word. Touch 0, 1 (cache {0,1} with 1 MRU),
	// touch 0 again (0 MRU), then 2 must evict 1; touching 0 is a hit,
	// touching 1 a miss.
	c := mustCache(t, Config{Capacity: 2, Block: 1})
	c.AccessWord(0, false)
	c.AccessWord(1, false)
	c.AccessWord(0, false)
	c.AccessWord(2, false)
	pre := c.Stats()
	c.AccessWord(0, false)
	if c.Stats().Misses != pre.Misses {
		t.Error("block 0 should have been resident")
	}
	c.AccessWord(1, false)
	if c.Stats().Misses != pre.Misses+1 {
		t.Error("block 1 should have been evicted")
	}
}

func TestFIFOIgnoresRecency(t *testing.T) {
	// Under FIFO, re-touching block 0 does not save it: insertion order
	// is 0,1 so accessing 2 evicts 0 even though 0 was just used.
	c := mustCache(t, Config{Capacity: 2, Block: 1, Policy: FIFO})
	c.AccessWord(0, false)
	c.AccessWord(1, false)
	c.AccessWord(0, false) // hit, but no promotion under FIFO
	c.AccessWord(2, false) // evicts 0
	pre := c.Stats().Misses
	c.AccessWord(0, false)
	if c.Stats().Misses != pre+1 {
		t.Error("FIFO should have evicted block 0 despite recent use")
	}
}

func TestWritebacks(t *testing.T) {
	c := mustCache(t, Config{Capacity: 2, Block: 1})
	c.AccessWord(0, true)  // dirty
	c.AccessWord(1, false) // clean
	c.AccessWord(2, false) // evicts 0 (LRU), dirty -> writeback
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1", got)
	}
	c.AccessWord(3, true) // evicts 1, clean -> no writeback
	if got := c.Stats().Writebacks; got != 1 {
		t.Errorf("writebacks = %d, want 1 after clean eviction", got)
	}
	c.Flush() // 2 clean, 3 dirty
	if got := c.Stats().Writebacks; got != 2 {
		t.Errorf("writebacks after flush = %d, want 2", got)
	}
	if c.Len() != 0 {
		t.Errorf("Len after flush = %d, want 0", c.Len())
	}
}

func TestAccessRangeCountsBlocksOnce(t *testing.T) {
	c := mustCache(t, Config{Capacity: 1024, Block: 16})
	c.Access(5, 30, false) // words 5..34 span blocks 0,1,2
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 3 {
		t.Errorf("range access: accesses=%d misses=%d, want 3,3", s.Accesses, s.Misses)
	}
	c.Access(5, 0, false)
	c.Access(5, -3, false)
	if c.Stats().Accesses != 3 {
		t.Error("empty/negative ranges must be no-ops")
	}
}

func TestResident(t *testing.T) {
	c := mustCache(t, Config{Capacity: 64, Block: 8})
	if !c.Resident(0, 0) {
		t.Error("empty range should be resident")
	}
	c.Access(0, 32, false)
	if !c.Resident(0, 32) {
		t.Error("just-accessed range should be resident")
	}
	if c.Resident(0, 128) {
		t.Error("unaccessed tail should not be resident")
	}
	pre := c.Stats()
	c.Resident(0, 64)
	if c.Stats() != pre {
		t.Error("Resident must not change stats")
	}
}

func TestSetAssociativeConflicts(t *testing.T) {
	// 2 sets x 2 ways, block 1. Blocks 0,2,4 all map to set 0; with 2 ways
	// the third conflicts even though capacity (4) is not exhausted.
	c := mustCache(t, Config{Capacity: 4, Block: 1, Ways: 2})
	c.AccessWord(0, false)
	c.AccessWord(2, false)
	c.AccessWord(4, false) // evicts block 0 within set 0
	pre := c.Stats().Misses
	c.AccessWord(0, false)
	if c.Stats().Misses != pre+1 {
		t.Error("conflict miss expected in 2-way set")
	}
	// Fully associative with same capacity holds all three.
	f := mustCache(t, Config{Capacity: 4, Block: 1})
	f.AccessWord(0, false)
	f.AccessWord(2, false)
	f.AccessWord(4, false)
	pre = f.Stats().Misses
	f.AccessWord(0, false)
	if f.Stats().Misses != pre {
		t.Error("fully associative cache should not conflict at 3/4 load")
	}
}

func TestStatsAddSub(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 6, Misses: 4, Compulsory: 2, Evictions: 1, Writebacks: 1}
	b := Stats{Accesses: 3, Hits: 1, Misses: 2, Compulsory: 1}
	sum := a.Add(b)
	if sum.Accesses != 13 || sum.Misses != 6 {
		t.Errorf("Add = %+v", sum)
	}
	if diff := sum.Sub(b); diff != a {
		t.Errorf("Sub = %+v, want %+v", diff, a)
	}
}

// referenceLRU is an obviously-correct fully-associative LRU used to
// cross-check the production implementation on random traces.
type referenceLRU struct {
	cap    int
	blocks []int64 // index 0 = MRU
}

func (r *referenceLRU) access(blk int64) (hit bool) {
	for i, b := range r.blocks {
		if b == blk {
			copy(r.blocks[1:i+1], r.blocks[:i])
			r.blocks[0] = blk
			return true
		}
	}
	if len(r.blocks) == r.cap {
		r.blocks = r.blocks[:len(r.blocks)-1]
	}
	r.blocks = append([]int64{blk}, r.blocks...)
	return false
}

func TestPropLRUMatchesReference(t *testing.T) {
	f := func(seed int64, capLines uint8, nAccess uint16) bool {
		lines := int64(capLines%16) + 1
		c, err := New(Config{Capacity: lines * 4, Block: 4})
		if err != nil {
			return false
		}
		ref := &referenceLRU{cap: int(lines)}
		rng := rand.New(rand.NewSource(seed))
		n := int(nAccess%2048) + 1
		for i := 0; i < n; i++ {
			// Address pool ~3x capacity so evictions happen.
			addr := rng.Int63n(lines * 12)
			pre := c.Stats().Hits
			c.AccessWord(addr, rng.Intn(2) == 0)
			gotHit := c.Stats().Hits == pre+1
			if gotHit != ref.access(addr/4) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropHitsPlusMissesEqualsAccesses(t *testing.T) {
	f := func(seed int64, ways uint8) bool {
		w := int(ways % 5) // 0..4
		if w == 3 {
			w = 4
		}
		c, err := New(Config{Capacity: 64, Block: 4, Ways: w})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			c.Access(rng.Int63n(1024), rng.Int63n(16)+1, rng.Intn(2) == 0)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses && s.Compulsory <= s.Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestArenaAlloc(t *testing.T) {
	var a Arena
	r1 := a.Alloc(10, 0)
	if r1.Base != 0 || r1.Size != 10 {
		t.Errorf("r1 = %v", r1)
	}
	r2 := a.Alloc(5, 8) // aligned up to 16
	if r2.Base != 16 || r2.Size != 5 {
		t.Errorf("r2 = %v", r2)
	}
	r3 := a.Alloc(0, 0)
	if r3.Size != 0 {
		t.Errorf("r3 = %v", r3)
	}
	if a.Used() != 21 {
		t.Errorf("Used = %d, want 21", a.Used())
	}
	if !r1.Contains(9) || r1.Contains(10) || r1.Contains(-1) {
		t.Error("Contains misbehaves")
	}
}

func TestArenaBlockAligned(t *testing.T) {
	var a Arena
	r1 := a.AllocBlockAligned(10, 8, true)
	if r1.Base != 0 || r1.Size != 10 {
		t.Errorf("r1 = %v", r1)
	}
	r2 := a.AllocBlockAligned(1, 8, true)
	if r2.Base != 16 {
		t.Errorf("r2.Base = %d, want 16 (padded)", r2.Base)
	}
	r3 := a.AllocBlockAligned(8, 8, false)
	if r3.Base != 24 {
		t.Errorf("r3.Base = %d, want 24", r3.Base)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" {
		t.Error("policy names wrong")
	}
	if Policy(7).String() == "" {
		t.Error("unknown policy should still render")
	}
}

func BenchmarkFullyAssociativeAccess(b *testing.B) {
	c, _ := New(Config{Capacity: 1 << 16, Block: 32})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]int64, 4096)
	for i := range addrs {
		addrs[i] = rng.Int63n(1 << 18)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessWord(addrs[i&4095], false)
	}
}

func BenchmarkSetAssociativeAccess(b *testing.B) {
	c, _ := New(Config{Capacity: 1 << 16, Block: 32, Ways: 8})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]int64, 4096)
	for i := range addrs {
		addrs[i] = rng.Int63n(1 << 18)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessWord(addrs[i&4095], false)
	}
}

func TestSingleLineCacheThrashes(t *testing.T) {
	// Capacity == Block is the smallest legal cache: one line. Alternating
	// blocks always miss; repeating the same block always hits.
	for _, policy := range []Policy{LRU, FIFO} {
		c := mustCache(t, Config{Capacity: 8, Block: 8, Policy: policy})
		c.AccessWord(0, false)  // miss (block 0)
		c.AccessWord(3, false)  // hit, same block
		c.AccessWord(8, false)  // miss, evicts 0
		c.AccessWord(0, false)  // miss, evicts 1
		c.AccessWord(7, true)   // hit
		c.AccessWord(15, false) // miss, writeback of dirty block 0
		st := c.Stats()
		if st.Accesses != 6 || st.Misses != 4 || st.Hits != 2 {
			t.Errorf("%v one-line cache: %+v", policy, st)
		}
		if st.Evictions != 3 {
			t.Errorf("%v one-line cache evictions = %d, want 3", policy, st.Evictions)
		}
		if st.Writebacks != 1 {
			t.Errorf("%v one-line cache writebacks = %d, want 1", policy, st.Writebacks)
		}
		if st.Compulsory != 2 { // only blocks 0 and 1 are ever touched
			t.Errorf("%v one-line cache compulsory = %d, want 2", policy, st.Compulsory)
		}
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	// Ways=1 is direct-mapped: 4 lines of 1 word, block b lands in set b%4.
	// Blocks 0 and 4 conflict; 1, 2, 3 are undisturbed.
	c := mustCache(t, Config{Capacity: 4, Block: 1, Ways: 1})
	for _, b := range []int64{0, 1, 2, 3} {
		c.AccessWord(b, false)
	}
	if c.Stats().Misses != 4 {
		t.Fatalf("cold misses = %d, want 4", c.Stats().Misses)
	}
	c.AccessWord(4, false) // conflict-evicts 0 despite 3 free-looking ways elsewhere
	c.AccessWord(0, false) // conflict-evicts 4
	c.AccessWord(1, false) // still resident: different set
	st := c.Stats()
	if st.Misses != 6 {
		t.Errorf("misses = %d, want 6 (two conflict misses)", st.Misses)
	}
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
	if got := c.Len(); got != 4 {
		t.Errorf("resident blocks = %d, want 4", got)
	}
}

func TestDirectMappedFIFOEqualsLRU(t *testing.T) {
	// With a single way there is no replacement choice: FIFO and LRU must
	// produce identical statistics on any trace.
	rng := rand.New(rand.NewSource(9))
	lru := mustCache(t, Config{Capacity: 8, Block: 2, Ways: 1})
	fifo := mustCache(t, Config{Capacity: 8, Block: 2, Ways: 1, Policy: FIFO})
	for i := 0; i < 2000; i++ {
		addr := rng.Int63n(64)
		write := rng.Intn(4) == 0
		lru.AccessWord(addr, write)
		fifo.AccessWord(addr, write)
	}
	if lru.Stats() != fifo.Stats() {
		t.Errorf("direct-mapped LRU %+v != FIFO %+v", lru.Stats(), fifo.Stats())
	}
}

func TestSetAssociativeFIFOIgnoresRecency(t *testing.T) {
	// 2 sets x 2 ways, 1-word blocks. Blocks 0,2,4 all map to set 0.
	// Under FIFO, re-touching 0 does not save it from eviction.
	c := mustCache(t, Config{Capacity: 4, Block: 1, Ways: 2, Policy: FIFO})
	c.AccessWord(0, false)
	c.AccessWord(2, false)
	c.AccessWord(0, false) // hit; no promotion under FIFO
	c.AccessWord(4, false) // set 0 full: evicts 0 (oldest insertion)
	pre := c.Stats().Misses
	c.AccessWord(0, false)
	if c.Stats().Misses != pre+1 {
		t.Error("set-associative FIFO should have evicted block 0 despite recent use")
	}
	// Same sequence under LRU keeps 0 and evicts 2 instead.
	c = mustCache(t, Config{Capacity: 4, Block: 1, Ways: 2})
	c.AccessWord(0, false)
	c.AccessWord(2, false)
	c.AccessWord(0, false) // promotes 0
	c.AccessWord(4, false) // evicts 2
	pre = c.Stats().Misses
	c.AccessWord(0, false)
	if c.Stats().Misses != pre {
		t.Error("set-associative LRU should have kept block 0")
	}
	c.AccessWord(2, false)
	if c.Stats().Misses != pre+1 {
		t.Error("set-associative LRU should have evicted block 2")
	}
}

func TestFullyAssociativeFIFOFlushAndRefill(t *testing.T) {
	// FIFO boundary: fill, flush (with a dirty block), refill. Flush must
	// count evictions and the writeback, and reset insertion order.
	c := mustCache(t, Config{Capacity: 3, Block: 1, Policy: FIFO})
	c.AccessWord(0, true)
	c.AccessWord(1, false)
	c.AccessWord(2, false)
	c.Flush()
	st := c.Stats()
	if st.Evictions != 3 || st.Writebacks != 1 {
		t.Fatalf("flush evictions=%d writebacks=%d, want 3 and 1", st.Evictions, st.Writebacks)
	}
	if c.Len() != 0 {
		t.Fatalf("resident after flush = %d", c.Len())
	}
	c.AccessWord(2, false)
	c.AccessWord(1, false)
	c.AccessWord(0, false)
	c.AccessWord(3, false) // evicts 2: first inserted after the flush
	pre := c.Stats().Misses
	c.AccessWord(1, false)
	c.AccessWord(0, false)
	if c.Stats().Misses != pre {
		t.Error("blocks 1 and 0 should have survived the post-flush eviction")
	}
	c.AccessWord(2, false)
	if c.Stats().Misses != pre+1 {
		t.Error("block 2 should have been the FIFO victim after refill")
	}
}

func TestObserverAndTraceTapConflictPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	c := mustCache(t, Config{Capacity: 64, Block: 8})
	c.SetObserver(func(int64, int64) {})
	mustPanic("StartTrace over observer", c.StartTrace)
	c.SetObserver(nil)
	c.StartTrace()
	mustPanic("SetObserver over trace", func() { c.SetObserver(func(int64, int64) {}) })
	mustPanic("SetObserver(nil) over trace", func() { c.SetObserver(nil) })
	c.AccessWord(0, false)
	c.AccessWord(8, false)
	if tr := c.StopTrace(); tr == nil || tr.Len() != 2 {
		t.Fatalf("trace after conflict guards: %v", tr)
	}
	// Tap is free again: both directions work.
	c.SetObserver(func(int64, int64) {})
	c.SetObserver(nil)
	c.StartTrace()
	if tr := c.StopTrace(); tr == nil {
		t.Fatal("restarted trace missing")
	}
}

// TestTapSeesRangesAsRuns pins the one tap shape: an Access range reaches
// the observer as a single (first block, count) run before any of its
// blocks resolves, single-word and single-block accesses as runs of one —
// and a NewTap cache forwards the same runs while simulating nothing.
func TestTapSeesRangesAsRuns(t *testing.T) {
	var sim, tap [][2]int64
	c := mustCache(t, Config{Capacity: 64, Block: 8})
	c.SetObserver(func(base, n int64) {
		if n > 1 && c.Resident(base*8, n*8) {
			t.Errorf("run %d+%d resolved before the observer saw it", base, n)
		}
		sim = append(sim, [2]int64{base, n})
	})
	only, err := NewTap(8, func(base, n int64) { tap = append(tap, [2]int64{base, n}) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTap(0, nil); err == nil {
		t.Error("NewTap accepted a zero block size")
	}
	for _, cache := range []*Cache{c, only} {
		cache.Access(5, 30, false) // words 5..34: blocks 0..4
		cache.Access(16, 0, true)  // empty range: no access
		cache.AccessWord(17, true)
		cache.AccessBlock(-3, false)
		cache.Access(8, 8, false)
	}
	want := [][2]int64{{0, 5}, {2, 1}, {-3, 1}, {1, 1}}
	if !reflect.DeepEqual(sim, want) || !reflect.DeepEqual(tap, want) {
		t.Fatalf("observer saw %v, tap-only cache %v, want %v", sim, tap, want)
	}
	if st := c.Stats(); st.Accesses != 8 || st.Hits+st.Misses != 8 {
		t.Errorf("simulating cache stats %+v, want 8 accesses resolved", st)
	}
	if st := only.Stats(); st != (Stats{Accesses: 8}) {
		t.Errorf("tap-only cache stats %+v, want 8 accesses and nothing else", st)
	}
	if only.Len() != 0 || only.Resident(0, 8) {
		t.Error("tap-only cache claims contents")
	}
	only.Flush() // nothing to flush, nothing to panic over
}
