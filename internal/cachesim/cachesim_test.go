package cachesim

import (
	"math/rand"
	"reflect"
	"slices"
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
		c.Access(i, 1)
	}
	want := (n + 15) / 16
	if got := c.Stats().Misses; got != int64(want) {
		t.Errorf("scan misses = %d, want %d", got, want)
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	// A working set of exactly M words: after the first pass, repeated
	// passes are all hits.
	c := mustCache(t, Config{Capacity: 256, Block: 8})
	for pass := 0; pass < 5; pass++ {
		for i := int64(0); i < 256; i++ {
			c.Access(i, 1)
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
	c.Access(0, 1)
	c.Access(1, 1)
	c.Access(0, 1)
	c.Access(2, 1)
	pre := c.Stats()
	c.Access(0, 1)
	if c.Stats().Misses != pre.Misses {
		t.Error("block 0 should have been resident")
	}
	c.Access(1, 1)
	if c.Stats().Misses != pre.Misses+1 {
		t.Error("block 1 should have been evicted")
	}
}

func TestFIFOIgnoresRecency(t *testing.T) {
	// Under FIFO, re-touching block 0 does not save it: insertion order
	// is 0,1 so accessing 2 evicts 0 even though 0 was just used.
	c := mustCache(t, Config{Capacity: 2, Block: 1, Policy: FIFO})
	c.Access(0, 1)
	c.Access(1, 1)
	c.Access(0, 1) // hit, but no promotion under FIFO
	c.Access(2, 1) // evicts 0
	pre := c.Stats().Misses
	c.Access(0, 1)
	if c.Stats().Misses != pre+1 {
		t.Error("FIFO should have evicted block 0 despite recent use")
	}
}

// TestWritebacks pins that writebacks are not modelled: a write resolves
// exactly like a read, so AccessBlock's write flag changes no statistic.
func TestWritebacks(t *testing.T) {
	for _, cfg := range []Config{{Capacity: 2, Block: 1}, {Capacity: 4, Block: 1, Ways: 2, Policy: FIFO}} {
		reads, writes := mustCache(t, cfg), mustCache(t, cfg)
		for _, blk := range []int64{0, 1, 2, 0, 3, 1, 2, 2, 4, 0} {
			reads.AccessBlock(blk, false)
			writes.AccessBlock(blk, true)
		}
		if reads.Stats() != writes.Stats() {
			t.Errorf("%+v: writes %+v, reads %+v", cfg, writes.Stats(), reads.Stats())
		}
	}
}

func TestAccessRangeCountsBlocksOnce(t *testing.T) {
	c := mustCache(t, Config{Capacity: 1024, Block: 16})
	c.Access(5, 30) // words 5..34 span blocks 0,1,2
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 3 {
		t.Errorf("range access: accesses=%d misses=%d, want 3,3", s.Accesses, s.Misses)
	}
	c.Access(5, 0)
	c.Access(5, -3)
	if c.Stats().Accesses != 3 {
		t.Error("empty/negative ranges must be no-ops")
	}
}

// TestResident checks what a range access leaves resident: every block of
// the range (touching it again only hits), and nothing past it.
func TestResident(t *testing.T) {
	c := mustCache(t, Config{Capacity: 64, Block: 8})
	c.Access(0, 32)
	c.ResetStats()
	c.Access(0, 32)
	if s := c.Stats(); s != (Stats{Accesses: 4, Hits: 4}) {
		t.Errorf("just-accessed range not resident: %+v", s)
	}
	c.Access(32, 32)
	if s := c.Stats(); s.Misses != 4 {
		t.Errorf("unaccessed tail resident: %+v", s)
	}
}

func TestSetAssociativeConflicts(t *testing.T) {
	// 2 sets x 2 ways, block 1. Blocks 0,2,4 all map to set 0; with 2 ways
	// the third conflicts even though capacity (4) is not exhausted.
	c := mustCache(t, Config{Capacity: 4, Block: 1, Ways: 2})
	c.Access(0, 1)
	c.Access(2, 1)
	c.Access(4, 1) // evicts block 0 within set 0
	pre := c.Stats().Misses
	c.Access(0, 1)
	if c.Stats().Misses != pre+1 {
		t.Error("conflict miss expected in 2-way set")
	}
	// Fully associative with same capacity holds all three.
	f := mustCache(t, Config{Capacity: 4, Block: 1})
	f.Access(0, 1)
	f.Access(2, 1)
	f.Access(4, 1)
	pre = f.Stats().Misses
	f.Access(0, 1)
	if f.Stats().Misses != pre {
		t.Error("fully associative cache should not conflict at 3/4 load")
	}
}

// reference is an obviously-correct cache: per set an ordered slice,
// newest first, with placement by floored blk mod sets. It shares no code
// with Bank; Bank, Cache and the fuzz target are held against it.
type reference struct {
	sets   [][]int64
	ways   int
	policy Policy
}

func newReference(sets, ways int64, policy Policy) *reference {
	return &reference{sets: make([][]int64, sets), ways: int(ways), policy: policy}
}

func (r *reference) set(blk int64) *[]int64 {
	n := int64(len(r.sets))
	return &r.sets[((blk%n)+n)%n]
}

func (r *reference) contains(blk int64) bool { return slices.Contains(*r.set(blk), blk) }

// access reports residency; an LRU hit moves the block to the front.
func (r *reference) access(blk int64) bool {
	row := r.set(blk)
	i := slices.Index(*row, blk)
	if i >= 0 && r.policy == LRU {
		*row = slices.Insert(slices.Delete(*row, i, i+1), 0, blk)
	}
	return i >= 0
}

// insert puts a non-resident blk at the front, evicting the back of a
// full set.
func (r *reference) insert(blk int64) (victim int64, evicted bool) {
	row := r.set(blk)
	if len(*row) == r.ways {
		victim, evicted = (*row)[r.ways-1], true
		*row = (*row)[:r.ways-1]
	}
	*row = slices.Insert(*row, 0, blk)
	return victim, evicted
}

func (r *reference) remove(blk int64) bool {
	row := r.set(blk)
	i := slices.Index(*row, blk)
	if i >= 0 {
		*row = slices.Delete(*row, i, i+1)
	}
	return i >= 0
}

func (r *reference) len() (n int64) {
	for _, row := range r.sets {
		n += int64(len(row))
	}
	return n
}

// touch is one cache access: a hit, or a miss that inserts.
func (r *reference) touch(blk int64) bool {
	if r.access(blk) {
		return true
	}
	r.insert(blk)
	return false
}

func TestPropLRUMatchesReference(t *testing.T) {
	f := func(seed int64, capLines uint8, nAccess uint16) bool {
		lines := int64(capLines%16) + 1
		c, err := New(Config{Capacity: lines * 4, Block: 4})
		if err != nil {
			return false
		}
		ref := newReference(1, lines, LRU)
		rng := rand.New(rand.NewSource(seed))
		n := int(nAccess%2048) + 1
		for i := 0; i < n; i++ {
			// Address pool ~3x capacity so evictions happen.
			addr := rng.Int63n(lines * 12)
			pre := c.Stats().Hits
			c.Access(addr, 1)
			gotHit := c.Stats().Hits == pre+1
			if gotHit != ref.touch(addr/4) {
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
			c.Access(rng.Int63n(1024), rng.Int63n(16)+1)
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
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
	if r3.Base != 21 || r1.End() != 10 {
		t.Errorf("r3 = %v, r1 ends at %d", r3, r1.End())
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

// BenchmarkCacheReplay times one 4096-block replay (one op) through a
// 2048-line cache warmed on the same replay, fully associative and 8-way.
func BenchmarkCacheReplay(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	blocks := make([]int64, 4096)
	for i := range blocks {
		blocks[i] = rng.Int63n(1 << 13)
	}
	for _, bc := range []struct {
		name string
		ways int
	}{{"fa-2048", 0}, {"8way", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			c, err := New(Config{Capacity: 2048 * 32, Block: 32, Ways: bc.ways})
			if err != nil {
				b.Fatal(err)
			}
			for _, blk := range blocks {
				c.AccessBlock(blk, false)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, blk := range blocks {
					c.AccessBlock(blk, false)
				}
			}
		})
	}
}

func TestSingleLineCacheThrashes(t *testing.T) {
	// Capacity == Block is the smallest legal cache: one line. Alternating
	// blocks always miss; repeating the same block always hits.
	for _, policy := range []Policy{LRU, FIFO} {
		c := mustCache(t, Config{Capacity: 8, Block: 8, Policy: policy})
		c.Access(0, 1)  // miss (block 0)
		c.Access(3, 1)  // hit, same block
		c.Access(8, 1)  // miss, evicts 0
		c.Access(0, 1)  // miss, evicts 1
		c.Access(7, 1)  // hit
		c.Access(15, 1) // miss, evicts 0
		st := c.Stats()
		if st.Accesses != 6 || st.Misses != 4 || st.Hits != 2 {
			t.Errorf("%v one-line cache: %+v", policy, st)
		}
		if n := c.bank.Len(); n != 1 {
			t.Errorf("%v one-line cache holds %d blocks", policy, n)
		}
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	// Ways=1 is direct-mapped: 4 lines of 1 word, block b lands in set b%4.
	// Blocks 0 and 4 conflict; 1, 2, 3 are undisturbed.
	c := mustCache(t, Config{Capacity: 4, Block: 1, Ways: 1})
	for _, b := range []int64{0, 1, 2, 3} {
		c.Access(b, 1)
	}
	if c.Stats().Misses != 4 {
		t.Fatalf("cold misses = %d, want 4", c.Stats().Misses)
	}
	c.Access(4, 1) // conflict-evicts 0 despite 3 free-looking ways elsewhere
	c.Access(0, 1) // conflict-evicts 4
	c.Access(1, 1) // still resident: different set
	st := c.Stats()
	if st.Misses != 6 {
		t.Errorf("misses = %d, want 6 (two conflict misses)", st.Misses)
	}
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1", st.Hits)
	}
	if got := c.bank.Len(); got != 4 {
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
		lru.Access(addr, 1)
		fifo.Access(addr, 1)
	}
	if lru.Stats() != fifo.Stats() {
		t.Errorf("direct-mapped LRU %+v != FIFO %+v", lru.Stats(), fifo.Stats())
	}
}

func TestSetAssociativeFIFOIgnoresRecency(t *testing.T) {
	// 2 sets x 2 ways, 1-word blocks. Blocks 0,2,4 all map to set 0.
	// Under FIFO, re-touching 0 does not save it from eviction.
	c := mustCache(t, Config{Capacity: 4, Block: 1, Ways: 2, Policy: FIFO})
	c.Access(0, 1)
	c.Access(2, 1)
	c.Access(0, 1) // hit; no promotion under FIFO
	c.Access(4, 1) // set 0 full: evicts 0 (oldest insertion)
	pre := c.Stats().Misses
	c.Access(0, 1)
	if c.Stats().Misses != pre+1 {
		t.Error("set-associative FIFO should have evicted block 0 despite recent use")
	}
	// Same sequence under LRU keeps 0 and evicts 2 instead.
	c = mustCache(t, Config{Capacity: 4, Block: 1, Ways: 2})
	c.Access(0, 1)
	c.Access(2, 1)
	c.Access(0, 1) // promotes 0
	c.Access(4, 1) // evicts 2
	pre = c.Stats().Misses
	c.Access(0, 1)
	if c.Stats().Misses != pre {
		t.Error("set-associative LRU should have kept block 0")
	}
	c.Access(2, 1)
	if c.Stats().Misses != pre+1 {
		t.Error("set-associative LRU should have evicted block 2")
	}
}

func TestFullyAssociativeFIFOFlushAndRefill(t *testing.T) {
	// FIFO boundary: fill, flush by streaming as many fresh blocks as
	// there are lines (FIFO evicts every original block, whatever its
	// use), refill. The refill's insertion order is the new FIFO order.
	c := mustCache(t, Config{Capacity: 3, Block: 1, Policy: FIFO})
	for _, addr := range []int64{0, 1, 2, 0, 10, 11, 12} {
		c.Access(addr, 1)
	}
	if st := c.Stats(); st.Misses != 6 || st.Hits != 1 {
		t.Fatalf("fill and flush: %+v, want 6 misses and 1 hit", st)
	}
	c.Access(2, 1)
	c.Access(1, 1)
	c.Access(0, 1)
	if st := c.Stats(); st.Misses != 9 {
		t.Fatalf("a flushed block survived: %+v", st)
	}
	c.Access(3, 1) // evicts 2: first inserted after the flush
	pre := c.Stats().Misses
	c.Access(1, 1)
	c.Access(0, 1)
	if c.Stats().Misses != pre {
		t.Error("blocks 1 and 0 should have survived the post-flush eviction")
	}
	c.Access(2, 1)
	if c.Stats().Misses != pre+1 {
		t.Error("block 2 should have been the FIFO victim after refill")
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
		if n > 1 && c.bank.Contains(base+n-1) {
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
		cache.Access(5, 30) // words 5..34: blocks 0..4
		cache.Access(16, 0) // empty range: no access
		cache.Access(17, 1)
		cache.AccessBlock(-3, false)
		cache.Access(8, 8)
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
	if only.bank != nil {
		t.Error("tap-only cache simulates a bank")
	}
}

// TestAccessMatchesPerWordDivision holds Access's addressing against a
// per-word reference: every word of a range belongs to block word/B,
// truncated toward zero, and the range touches those blocks once each, in
// order. Negative, zero and block-straddling ranges run through power-of-two
// blocks (1, 16: the shift for non-negative addresses) and others (3, 48:
// always the division), on a simulating cache and a tap; both must report
// the reference's tap runs, and the simulating cache the Stats of a cache
// fed the reference's blocks one by one. A zero-value Cache divides.
func TestAccessMatchesPerWordDivision(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, block := range []int64{1, 3, 16, 48} {
		type access struct{ addr, size int64 }
		var accesses []access
		for _, addr := range []int64{-5 * block, -block - 1, -block, -block + 1, -1, 0, 1, block - 1, block, 3*block + 1} {
			for _, size := range []int64{1, 2, block, block + 1, 2*block + 3} {
				accesses = append(accesses, access{addr, size})
			}
		}
		for i := 0; i < 300; i++ {
			accesses = append(accesses, access{rng.Int63n(40*block) - 20*block, 1 + rng.Int63n(3*block)})
		}

		cfg := Config{Capacity: 4 * block, Block: block}
		var sim, tap, want [][2]int64
		c := mustCache(t, cfg)
		c.SetObserver(func(base, n int64) { sim = append(sim, [2]int64{base, n}) })
		only, err := NewTap(block, func(base, n int64) { tap = append(tap, [2]int64{base, n}) })
		if err != nil {
			t.Fatal(err)
		}
		ref := mustCache(t, cfg)
		for _, a := range accesses {
			c.Access(a.addr, a.size)
			only.Access(a.addr, a.size)
			var run [2]int64
			for w := a.addr; w < a.addr+a.size; w++ {
				blk := w / block
				switch {
				case run[1] == 0:
					run = [2]int64{blk, 1}
				case blk != run[0]+run[1]-1:
					run[1]++
				default:
					continue
				}
				ref.AccessBlock(blk, false)
			}
			want = append(want, run)
		}
		if !reflect.DeepEqual(sim, want) || !reflect.DeepEqual(tap, want) {
			for i := range want {
				if i >= len(sim) || i >= len(tap) || sim[i] != want[i] || tap[i] != want[i] {
					t.Fatalf("block %d: Access(%d, %d) reached the observer as %v and the tap as %v, per-word division gives %v",
						block, accesses[i].addr, accesses[i].size, at(sim, i), at(tap, i), want[i])
				}
			}
			t.Fatalf("block %d: %d observer and %d tap runs, want %d", block, len(sim), len(tap), len(want))
		}
		if got, ref := c.Stats(), ref.Stats(); got != ref {
			t.Errorf("block %d: Stats %+v, per-word division reference %+v", block, got, ref)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("a zero-value Cache resolved an access without dividing by its zero block")
		}
	}()
	var zero Cache
	zero.Access(16, 1)
}

// at returns runs[i], or a zero run past the end.
func at(runs [][2]int64, i int) [2]int64 {
	if i < len(runs) {
		return runs[i]
	}
	return [2]int64{}
}
