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
//
// Bank (bank.go) is the one implementation of placement and replacement.
// Cache is a Bank plus word addressing, hit/miss counters, a per-class
// miss tally and one access tap; internal/hierarchy builds its levels
// from Banks directly. Writes are not modelled: a write resolves exactly
// like a read, since the paper counts transfers into the cache.
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
	Accesses int64 // block accesses issued
	Hits     int64
	Misses   int64 // block transfers from memory to cache
}

// Cache is a simulated cache: a Bank of the configuration's geometry plus
// word addressing, Stats, the per-class miss tally (classify.go) and one
// access tap. It is not safe for concurrent use; the parallel scheduler
// gives each simulated processor its own Cache.
type Cache struct {
	cfg   Config
	bank  *Bank // nil for NewTap: nothing is simulated
	stats Stats

	observer    func(b, n int64) // access tap (SetObserver / NewTap)
	classes     []classRange     // registered object ranges (classify.go)
	classMisses ClassStats
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	return &Cache{cfg: cfg, bank: NewBank(sets, cfg.Lines()/sets, cfg.Policy)}, nil
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
	if c.bank != nil {
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

// SetObserver installs (or, with nil, removes) the cache's one tap: a
// callback invoked with every access before its hit/miss resolution, as a
// run of blocks: fn(base, n) stands for base, base+1, …, base+n-1, the
// blocks one Access range covers. The reuse-distance engine
// (internal/trace) records traces through it; the stream it sees, runs
// expanded, is exactly the stream the replacement policy sees.
func (c *Cache) SetObserver(fn func(base, n int64)) { c.observer = fn }

// Access touches the word range [addr, addr+size). Each distinct block in
// the range counts as one block access.
func (c *Cache) Access(addr, size int64) {
	if size <= 0 {
		return
	}
	first := addr / c.cfg.Block
	c.accessRun(first, (addr+size-1)/c.cfg.Block-first+1)
}

// AccessBlock touches one block directly by its block id. Block-level
// traces (the observer tap's stream, or internal/trace logs) replayed
// through AccessBlock reproduce the original run's hit/miss sequence
// under any organisation — the oracle the one-pass set-associative and
// FIFO curves are cross-validated against.
//
// write is ignored — a write resolves exactly like a read; the argument is
// kept only because the frozen bench/ module passes it.
func (c *Cache) AccessBlock(blk int64, write bool) {
	c.accessRun(blk, 1)
}

// accessRun touches the n blocks from first up, in order.
func (c *Cache) accessRun(first, n int64) {
	c.stats.Accesses += n
	if c.observer != nil {
		c.observer(first, n)
	}
	if c.bank == nil {
		return // NewTap: nothing to simulate
	}
	for blk := first; blk < first+n; blk++ {
		if c.bank.Access(blk) {
			c.stats.Hits++
			continue
		}
		c.stats.Misses++
		if len(c.classes) > 0 {
			c.classMisses[c.classify(blk)]++
		}
		c.bank.Insert(blk)
	}
}
