// Package hierarchy models multi-level cache hierarchies: an L1 whose
// misses are served by an L2, each with its own (capacity, block, ways,
// policy) organisation. The paper's model charges every schedule against a
// single cache level; real machines stream through an L1/L2 hierarchy, and
// a schedule that wins at one capacity can lose once L2 filtering is
// modelled — the L2 only ever sees the L1's miss stream.
//
// Two evaluation paths, deliberately independent so each validates the
// other:
//
//   - Sim is the exact two-level simulator: two cachesim.Banks wired
//     together, supporting non-inclusive (default) and exclusive victim
//     modes, with per-level hit/miss counters and an AMAT-style composed
//     cost model.
//   - HierProfiler is the one-pass evaluation path built on the
//     internal/trace machinery: the execution's recorder (or ProfileHier's
//     single replay of a recorded log) feeds every access once through
//     trace.OrgProfilers over the L1 grid. One stack touch per
//     access yields the exact L1 curves and decides, for every L1 design
//     point at once, whether the access missed there (LRU: found deeper
//     than the point's ways in its set-count family; FIFO: absent from the
//     point's replica), read for up to 64 points at once as a miss mask.
//     Per L2 block ratio one trace.OrgLanes, built from the L2 grid the
//     same way, holds a lane per L1 point, and the access, coarsened to
//     the ratio, feeds the lanes of the points that missed: each lane's
//     stream is its point's miss stream. A hierarchy is profilers feeding
//     profilers, and one recorded execution answers the whole (L1, L2)
//     grid.
//
// The composition is exact for non-inclusive hierarchies because the L2's
// reference stream is precisely the L1 miss stream, which is a
// deterministic function of the trace and the L1 organisation alone.
// Exclusive hierarchies also depend on the L1's eviction stream, so they
// are served by Sim only. TestProfileHierMatchesSimulator holds every grid
// point of the one-pass path against Sim.
//
// The multiprocessor analogue replaces the single L1 with P private L1s
// feeding one shared L2 in the interleaved order a parallel run emitted
// (fed live by the executor, or replayed from a trace.ProcLog): SharedSim
// is the exact simulator (per-processor counters, attributed L2 traffic,
// makespan under the cost model) and SharedProfiler the one-pass grid
// evaluator — the same engine as HierProfiler, which is its one-processor
// form, with one L1 OrgProfilers per processor, their merged miss streams
// driving the shared-L2 lanes. TestProfileSharedMatchesSimulator holds
// every shared grid point against SharedSim. Everything runs inline on the
// calling goroutine in one pass.
package hierarchy

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// Level describes one cache level's organisation, mirroring
// cachesim.Config: capacity and block size in words, set associativity
// (0 = fully associative), and replacement policy.
type Level struct {
	// Capacity is the level's size in words; must be a positive multiple
	// of Block.
	Capacity int64
	// Block is the level's line size in words; must be positive.
	Block int64
	// Ways is the set associativity; 0 means fully associative.
	Ways int64
	// Policy is the replacement policy (default LRU).
	Policy cachesim.Policy
}

// config maps the level onto the single-level simulator's configuration,
// the source of truth for geometry rules.
func (lv Level) config() cachesim.Config {
	return cachesim.Config{Capacity: lv.Capacity, Block: lv.Block, Ways: int(lv.Ways), Policy: lv.Policy}
}

// Validate checks the level's geometry by delegating to cachesim.Config,
// so the hierarchy accepts exactly the organisations the single-level
// simulator does.
func (lv Level) Validate() error {
	if lv.Ways != int64(int(lv.Ways)) {
		return fmt.Errorf("hierarchy: ways %d out of range", lv.Ways)
	}
	if err := lv.config().Validate(); err != nil {
		return fmt.Errorf("hierarchy: invalid level: %w", err)
	}
	return nil
}

// Sets returns the level's set count: Capacity/Block/Ways, or 1 when fully
// associative.
func (lv Level) Sets() int64 { return lv.config().Sets() }

// EffWays returns the lines per set a block competes against: Ways, or the
// whole line count when fully associative.
func (lv Level) EffWays() int64 {
	return trace.EffectiveWays(lv.Capacity, lv.Block, lv.Ways)
}

// String formats the level for tables, e.g. "2048w/B64 4-way FIFO".
func (lv Level) String() string {
	org := "FA"
	switch {
	case lv.Ways == 1:
		org = "DM"
	case lv.Ways > 1:
		org = fmt.Sprintf("%d-way", lv.Ways)
	}
	return fmt.Sprintf("%dw/B%d %s %s", lv.Capacity, lv.Block, org, lv.Policy)
}

// bank builds the level's cachesim.Bank.
func (lv Level) bank() *cachesim.Bank {
	return cachesim.NewBank(lv.Sets(), lv.EffWays(), lv.Policy)
}

// Mode selects the hierarchy's inclusion policy.
type Mode int

const (
	// NonInclusive is the default: each level caches independently. An L1
	// miss is looked up in the L2 and filled into both levels; L1 victims
	// are dropped (the clean-eviction model, matching the single-level
	// simulator's miss accounting).
	NonInclusive Mode = iota
	// Exclusive makes the L2 a victim cache: a block lives in at most one
	// level. An L2 hit promotes the block to the L1 (removing it from the
	// L2), and L1 victims are inserted into the L2. Requires equal block
	// sizes.
	Exclusive
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case NonInclusive:
		return "non-inclusive"
	case Exclusive:
		return "exclusive"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes a two-level hierarchy.
type Config struct {
	L1, L2 Level
	Mode   Mode
}

// Validate checks both levels and their compatibility: the L2 block must
// be a multiple of the L1 block (an L1 miss touches exactly one L2 line),
// and exclusive mode requires equal block sizes (a victim must fit one L2
// line exactly).
func (cfg Config) Validate() error {
	if err := cfg.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := cfg.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if cfg.L2.Block%cfg.L1.Block != 0 {
		return fmt.Errorf("hierarchy: L2 block %d not a multiple of L1 block %d", cfg.L2.Block, cfg.L1.Block)
	}
	switch cfg.Mode {
	case NonInclusive:
	case Exclusive:
		if cfg.L1.Block != cfg.L2.Block {
			return fmt.Errorf("hierarchy: exclusive mode needs equal block sizes, got %d/%d", cfg.L1.Block, cfg.L2.Block)
		}
	default:
		return fmt.Errorf("hierarchy: unknown mode %d", int(cfg.Mode))
	}
	return nil
}

// LevelStats counts one level's traffic. For the L1, Accesses is the
// schedule's block-access stream; for the L2 it is the L1 miss stream, so
// L2 misses are the hierarchy's memory transfers.
type LevelStats struct {
	Accesses int64
	Hits     int64
	Misses   int64
}

// CostModel weighs the hierarchy's traffic into a single average
// memory-access-time figure: every L1 access pays L1Hit, every L1 miss
// additionally pays L2Hit (the L2 lookup), and every L2 miss additionally
// pays Mem (the memory transfer).
type CostModel struct {
	L1Hit float64
	L2Hit float64
	Mem   float64
}

// DefaultCostModel is a conventional 1/10/100-cycle latency ladder.
var DefaultCostModel = CostModel{L1Hit: 1, L2Hit: 10, Mem: 100}

// AMAT composes per-level counts into the average cost per L1 access;
// zero accesses cost zero.
func (cm CostModel) AMAT(accesses, l1Misses, l2Misses int64) float64 {
	if accesses <= 0 {
		return 0
	}
	total := cm.L1Hit*float64(accesses) + cm.L2Hit*float64(l1Misses) + cm.Mem*float64(l2Misses)
	return total / float64(accesses)
}
