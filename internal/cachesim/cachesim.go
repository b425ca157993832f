// Package cachesim simulates the external-memory (I/O, disk-access) model
// used by the paper: a fast cache of capacity M words organised in blocks of
// B words in front of an arbitrarily large slow memory. The cost of a
// computation is the number of block transfers (cache misses).
//
// Addresses are in words (the paper's unit-size items); block identifiers
// are addr/B. The default configuration is the model's fully-associative
// LRU cache; set-associative and FIFO variants exist so experiments can
// check that the paper's conclusions are robust to the replacement policy
// (experiment E12).
package cachesim

import (
	"errors"
	"fmt"
)

// Policy selects the replacement policy.
type Policy int

const (
	// LRU evicts the least-recently-used block. This is the default and the
	// standard competitive stand-in for the ideal cache in the DAM model.
	LRU Policy = iota
	// FIFO evicts blocks in insertion order regardless of use.
	FIFO
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Config describes a simulated cache.
type Config struct {
	// Capacity is the cache size M in words. Must be positive and a
	// multiple of Block.
	Capacity int64
	// Block is the block (cache line) size B in words. Must be positive.
	Block int64
	// Ways is the set associativity; 0 means fully associative.
	Ways int
	// Policy is the replacement policy (default LRU).
	Policy Policy
}

// Lines returns the number of cache lines (Capacity/Block) of a valid
// configuration.
func (cfg Config) Lines() int64 { return cfg.Capacity / cfg.Block }

// Sets returns the number of sets of a valid configuration: Lines()/Ways,
// or 1 when fully associative (Ways == 0). The set a block maps to is
// blk mod Sets(); the one-pass organisation profiler (internal/trace)
// shards traces by the same index.
func (cfg Config) Sets() int64 {
	if cfg.Ways == 0 {
		return 1
	}
	return cfg.Lines() / int64(cfg.Ways)
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	if cfg.Block <= 0 {
		return fmt.Errorf("cachesim: block size must be positive, got %d", cfg.Block)
	}
	if cfg.Capacity <= 0 {
		return fmt.Errorf("cachesim: capacity must be positive, got %d", cfg.Capacity)
	}
	if cfg.Capacity%cfg.Block != 0 {
		return fmt.Errorf("cachesim: capacity %d not a multiple of block %d", cfg.Capacity, cfg.Block)
	}
	if cfg.Ways < 0 {
		return fmt.Errorf("cachesim: ways must be >= 0, got %d", cfg.Ways)
	}
	lines := cfg.Capacity / cfg.Block
	if cfg.Ways > 0 {
		if int64(cfg.Ways) > lines {
			return fmt.Errorf("cachesim: ways %d exceeds line count %d", cfg.Ways, lines)
		}
		if lines%int64(cfg.Ways) != 0 {
			return fmt.Errorf("cachesim: line count %d not a multiple of ways %d", lines, cfg.Ways)
		}
	}
	if cfg.Policy != LRU && cfg.Policy != FIFO {
		return fmt.Errorf("cachesim: unknown policy %d", int(cfg.Policy))
	}
	return nil
}

// Stats accumulates transfer counts. All counts are at block granularity.
type Stats struct {
	Accesses   int64 // block accesses issued
	Hits       int64
	Misses     int64 // block transfers from memory to cache
	Compulsory int64 // misses on blocks never seen before
	Evictions  int64
	Writebacks int64 // dirty blocks written back on eviction or flush
}

// Add returns the component-wise sum of s and o.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Accesses:   s.Accesses + o.Accesses,
		Hits:       s.Hits + o.Hits,
		Misses:     s.Misses + o.Misses,
		Compulsory: s.Compulsory + o.Compulsory,
		Evictions:  s.Evictions + o.Evictions,
		Writebacks: s.Writebacks + o.Writebacks,
	}
}

// Sub returns the component-wise difference s - o.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Accesses:   s.Accesses - o.Accesses,
		Hits:       s.Hits - o.Hits,
		Misses:     s.Misses - o.Misses,
		Compulsory: s.Compulsory - o.Compulsory,
		Evictions:  s.Evictions - o.Evictions,
		Writebacks: s.Writebacks - o.Writebacks,
	}
}

// Cache is a simulated cache. It is not safe for concurrent use; the
// parallel scheduler gives each simulated processor its own Cache.
type Cache struct {
	cfg   Config
	lines int64

	// Fully-associative state (Ways == 0): an intrusive doubly-linked list
	// over line slots, plus a block -> slot map.
	faMap   map[int64]int32
	faBlk   []int64
	faDirty []bool
	faNext  []int32
	faPrev  []int32
	faHead  int32 // most recently used / most recently inserted
	faTail  int32 // eviction end
	faFree  []int32

	// Set-associative state (Ways > 0).
	sets    int64
	saBlk   [][]int64 // per set, slot -> block (-1 empty)
	saDirty [][]bool
	saAge   [][]int64 // per set, slot -> last-use (LRU) or insertion (FIFO) tick
	tick    int64

	seen  map[int64]struct{}
	stats Stats

	traceRec    *Trace           // non-nil while StartTrace recording (opt.go)
	observer    func(b, n int64) // access tap (SetObserver / StartTrace / NewTap)
	classes     []classRange     // registered object ranges (classify.go)
	classMisses ClassStats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:   cfg,
		lines: cfg.Capacity / cfg.Block,
		seen:  make(map[int64]struct{}),
	}
	if cfg.Ways == 0 {
		n := int32(c.lines)
		c.faMap = make(map[int64]int32, c.lines)
		c.faBlk = make([]int64, n)
		c.faDirty = make([]bool, n)
		c.faNext = make([]int32, n)
		c.faPrev = make([]int32, n)
		c.faHead, c.faTail = -1, -1
		c.faFree = make([]int32, 0, n)
		for i := n - 1; i >= 0; i-- {
			c.faFree = append(c.faFree, i)
		}
	} else {
		c.sets = c.lines / int64(cfg.Ways)
		c.saBlk = make([][]int64, c.sets)
		c.saDirty = make([][]bool, c.sets)
		c.saAge = make([][]int64, c.sets)
		for s := int64(0); s < c.sets; s++ {
			blk := make([]int64, cfg.Ways)
			for i := range blk {
				blk[i] = -1
			}
			c.saBlk[s] = blk
			c.saDirty[s] = make([]bool, cfg.Ways)
			c.saAge[s] = make([]int64, cfg.Ways)
		}
	}
	return c, nil
}

// NewTap returns a cache that simulates nothing: it has no lines, keeps
// no contents and resolves no hits or misses; it only counts
// Stats().Accesses and forwards every access to tap, like an observer. A
// recording execution machine charges its accesses to one — the recorded
// stream depends on no cache, so none is simulated.
func NewTap(block int64, tap func(base, n int64)) (*Cache, error) {
	if block <= 0 {
		return nil, fmt.Errorf("cachesim: block size must be positive, got %d", block)
	}
	return &Cache{cfg: Config{Block: block}, observer: tap}, nil
}

// Skip counts n block accesses a tap did not forward, so that a recording
// whose recorder counted repeated stretches by multiplication
// (exec.Machine.Advance) still reports the logical Stats().Accesses. Only
// a tap can skip: a simulating cache's statistics depend on every access.
func (c *Cache) Skip(n int64) error {
	if c.lines != 0 {
		return errors.New("cachesim: a simulating cache cannot skip accesses")
	}
	c.stats.Accesses += n
	return nil
}

// Config returns the configuration the cache was built with.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics (including per-class miss counts)
// without disturbing cache contents.
func (c *Cache) ResetStats() {
	c.stats = Stats{}
	c.classMisses = ClassStats{}
}

// SetObserver installs (or, with nil, removes) a callback invoked with
// every access before its hit/miss resolution, as a run of blocks:
// fn(base, n) stands for base, base+1, …, base+n-1, the blocks one Access
// range covers. The reuse-distance engine (internal/trace) records traces
// through it; the stream it sees, runs expanded, is exactly the stream the
// replacement policy sees.
// The cache has a single tap: StartTrace also claims it, so an observer
// and an OPT-replay trace cannot record simultaneously. While a
// StartTrace recording is active any SetObserver call — including nil,
// which would silently truncate the trace — panics; end the recording
// with StopTrace first.
func (c *Cache) SetObserver(fn func(base, n int64)) {
	if c.traceRec != nil {
		panic("cachesim: SetObserver while a StartTrace recording is active; call StopTrace first")
	}
	c.observer = fn
}

// Access touches the word range [addr, addr+size) with the given intent.
// Each distinct block in the range counts as one block access.
func (c *Cache) Access(addr, size int64, write bool) {
	if size <= 0 {
		return
	}
	first := addr / c.cfg.Block
	c.accessRun(first, (addr+size-1)/c.cfg.Block-first+1, write)
}

// AccessWord touches a single word.
func (c *Cache) AccessWord(addr int64, write bool) {
	c.accessRun(addr/c.cfg.Block, 1, write)
}

// AccessBlock touches one block directly by its block id. Block-level
// traces (the observer tap's stream, or internal/trace logs) replayed
// through AccessBlock reproduce the original run's hit/miss sequence
// under any organisation — the oracle the one-pass set-associative and
// FIFO curves are cross-validated against.
func (c *Cache) AccessBlock(blk int64, write bool) {
	c.accessRun(blk, 1, write)
}

// Resident reports whether every block of [addr, addr+size) is currently in
// cache. It does not affect statistics or recency.
func (c *Cache) Resident(addr, size int64) bool {
	if size <= 0 {
		return true
	}
	first := addr / c.cfg.Block
	last := (addr + size - 1) / c.cfg.Block
	for b := first; b <= last; b++ {
		if !c.residentBlock(b) {
			return false
		}
	}
	return true
}

// Len returns the number of blocks currently resident.
func (c *Cache) Len() int64 {
	if c.cfg.Ways == 0 {
		return int64(len(c.faMap))
	}
	var n int64
	for s := range c.saBlk {
		for _, b := range c.saBlk[s] {
			if b >= 0 {
				n++
			}
		}
	}
	return n
}

// Flush evicts every block, counting writebacks for dirty blocks. It models
// the "start each subschedule with an empty cache" device from Theorem 7.
func (c *Cache) Flush() {
	if c.cfg.Ways == 0 {
		for blk, slot := range c.faMap {
			if c.faDirty[slot] {
				c.stats.Writebacks++
			}
			c.stats.Evictions++
			delete(c.faMap, blk)
			c.faFree = append(c.faFree, slot)
		}
		c.faHead, c.faTail = -1, -1
		return
	}
	for s := range c.saBlk {
		for i, b := range c.saBlk[s] {
			if b >= 0 {
				if c.saDirty[s][i] {
					c.stats.Writebacks++
				}
				c.stats.Evictions++
				c.saBlk[s][i] = -1
				c.saDirty[s][i] = false
			}
		}
	}
}

func (c *Cache) residentBlock(blk int64) bool {
	if c.cfg.Ways == 0 {
		_, ok := c.faMap[blk]
		return ok
	}
	set := blk % c.sets
	for _, b := range c.saBlk[set] {
		if b == blk {
			return true
		}
	}
	return false
}

// accessRun touches the n blocks from first up, in order.
func (c *Cache) accessRun(first, n int64, write bool) {
	c.stats.Accesses += n
	if c.observer != nil {
		c.observer(first, n)
	}
	if c.lines == 0 {
		return // NewTap: nothing to simulate
	}
	for blk := first; blk < first+n; blk++ {
		if c.cfg.Ways == 0 {
			c.faAccess(blk, write)
		} else {
			c.saAccess(blk, write)
		}
	}
}

func (c *Cache) noteMiss(blk int64) {
	c.stats.Misses++
	if len(c.classes) > 0 {
		c.classMisses[c.classify(blk)]++
	}
	if _, ok := c.seen[blk]; !ok {
		c.seen[blk] = struct{}{}
		c.stats.Compulsory++
	}
}

// --- fully associative ---

func (c *Cache) faAccess(blk int64, write bool) {
	if slot, ok := c.faMap[blk]; ok {
		c.stats.Hits++
		if write {
			c.faDirty[slot] = true
		}
		if c.cfg.Policy == LRU && c.faHead != slot {
			c.faUnlink(slot)
			c.faPushFront(slot)
		}
		return
	}
	c.noteMiss(blk)
	var slot int32
	if n := len(c.faFree); n > 0 {
		slot = c.faFree[n-1]
		c.faFree = c.faFree[:n-1]
	} else {
		slot = c.faTail
		victim := c.faBlk[slot]
		if c.faDirty[slot] {
			c.stats.Writebacks++
		}
		c.stats.Evictions++
		delete(c.faMap, victim)
		c.faUnlink(slot)
	}
	c.faBlk[slot] = blk
	c.faDirty[slot] = write
	c.faMap[blk] = slot
	c.faPushFront(slot)
}

func (c *Cache) faUnlink(slot int32) {
	p, n := c.faPrev[slot], c.faNext[slot]
	if p >= 0 {
		c.faNext[p] = n
	} else {
		c.faHead = n
	}
	if n >= 0 {
		c.faPrev[n] = p
	} else {
		c.faTail = p
	}
}

func (c *Cache) faPushFront(slot int32) {
	c.faPrev[slot] = -1
	c.faNext[slot] = c.faHead
	if c.faHead >= 0 {
		c.faPrev[c.faHead] = slot
	}
	c.faHead = slot
	if c.faTail < 0 {
		c.faTail = slot
	}
}

// --- set associative ---

func (c *Cache) saAccess(blk int64, write bool) {
	c.tick++
	set := blk % c.sets
	blks := c.saBlk[set]
	for i, b := range blks {
		if b == blk {
			c.stats.Hits++
			if write {
				c.saDirty[set][i] = true
			}
			if c.cfg.Policy == LRU {
				c.saAge[set][i] = c.tick
			}
			return
		}
	}
	c.noteMiss(blk)
	// Find an empty slot or the oldest entry.
	victim, oldest := -1, int64(1<<62)
	for i, b := range blks {
		if b < 0 {
			victim = i
			break
		}
		if c.saAge[set][i] < oldest {
			oldest = c.saAge[set][i]
			victim = i
		}
	}
	if blks[victim] >= 0 {
		if c.saDirty[set][victim] {
			c.stats.Writebacks++
		}
		c.stats.Evictions++
	}
	blks[victim] = blk
	c.saDirty[set][victim] = write
	c.saAge[set][victim] = c.tick
}
