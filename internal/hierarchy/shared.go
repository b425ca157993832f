package hierarchy

import (
	"fmt"

	"streamsched/internal/obs"
	"streamsched/internal/trace"
)

// SharedConfig describes a P-processor shared-L2 hierarchy: every logical
// processor owns a private L1 of the same organisation, and all L1 miss
// streams are served by one shared L2 in the order the parallel executor
// emits them. The hierarchy is non-inclusive (an L1 miss fills the missing
// processor's L1 and the shared L2; victims are dropped), the one mode
// whose L2 reference stream is a deterministic function of the interleaved
// trace and the L1 organisation alone — which is what makes the one-pass
// ProfileShared path exact.
type SharedConfig struct {
	// Procs is the number of logical processors (>= 1), each with a
	// private L1.
	Procs int
	// L1 is the per-processor private level; L2 is the shared level. The
	// L2 block must be a multiple of the L1 block.
	L1, L2 Level
}

// Validate checks the configuration.
func (cfg SharedConfig) Validate() error {
	if cfg.Procs < 1 {
		return fmt.Errorf("hierarchy: shared config needs >= 1 processor, got %d", cfg.Procs)
	}
	if err := cfg.L1.Validate(); err != nil {
		return fmt.Errorf("L1: %w", err)
	}
	if err := cfg.L2.Validate(); err != nil {
		return fmt.Errorf("L2: %w", err)
	}
	if cfg.L2.Block%cfg.L1.Block != 0 {
		return fmt.Errorf("hierarchy: L2 block %d not a multiple of L1 block %d", cfg.L2.Block, cfg.L1.Block)
	}
	return nil
}

// SharedSim is the exact shared-L2 simulator: P private L1 cachesim.Banks
// in front of one shared L2 Bank. It consumes the interleaved
// per-processor block-access stream of a parallel run (Access and
// RecordRun tag every access with its processor), so the L2's contents —
// and therefore its hit rate — depend on how the processors' miss streams
// interleave: the contention effect scheduler and partition choices move.
// SharedSim is not safe for concurrent use; the parallel executor is a
// deterministic single-threaded simulation and feeds it in emission order.
type SharedSim struct {
	cfg   SharedConfig
	ratio int64 // L2 block / L1 block
	l1    []*bankLevel
	l2    *bankLevel
	// perProcL2 attributes the shared L2's traffic to the accessing
	// processor: perProcL2[p] counts the L2 lookups (p's L1 misses) and L2
	// misses (p's memory transfers) triggered by processor p.
	perProcL2 []LevelStats
}

// NewSharedSim builds a simulator from cfg.
func NewSharedSim(cfg SharedConfig) (*SharedSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &SharedSim{
		cfg:       cfg,
		ratio:     cfg.L2.Block / cfg.L1.Block,
		l1:        make([]*bankLevel, cfg.Procs),
		l2:        &bankLevel{bank: cfg.L2.bank()},
		perProcL2: make([]LevelStats, cfg.Procs),
	}
	for p := range s.l1 {
		s.l1[p] = &bankLevel{bank: cfg.L1.bank()}
	}
	return s, nil
}

// Config returns the configuration the simulator was built with.
func (s *SharedSim) Config() SharedConfig { return s.cfg }

// Access feeds one L1-granularity block access by processor proc through
// the hierarchy: a private L1 lookup, then — on a miss — a shared L2
// lookup at L2 granularity. Both levels fill on their misses; victims are
// dropped (the non-inclusive clean-eviction model, matching Sim).
func (s *SharedSim) Access(proc int, blk int64) {
	l1 := s.l1[proc]
	l1.stats.Accesses++
	if l1.bank.Access(blk) {
		l1.stats.Hits++
		return
	}
	l1.stats.Misses++
	l1.bank.Insert(blk)
	b2 := coarsen(blk, s.ratio)
	s.l2.stats.Accesses++
	s.perProcL2[proc].Accesses++
	if s.l2.bank.Access(b2) {
		s.l2.stats.Hits++
		s.perProcL2[proc].Hits++
		return
	}
	s.l2.stats.Misses++
	s.perProcL2[proc].Misses++
	s.l2.bank.Insert(b2)
}

// RecordRun feeds processor proc's accesses to the n blocks base, base+1,
// … through the hierarchy, in that order — the executor's per-processor
// sink, as SharedProfiler.RecordRun is.
func (s *SharedSim) RecordRun(proc int, base, n int64) {
	for end := base + n; base != end; base++ {
		s.Access(proc, base)
	}
}

// ResetStats zeroes every counter without disturbing cache contents — the
// warm-then-measure protocol.
func (s *SharedSim) ResetStats() {
	for p := range s.l1 {
		s.l1[p].stats = LevelStats{}
		s.perProcL2[p] = LevelStats{}
	}
	s.l2.stats = LevelStats{}
}

// L1Stats returns processor proc's private-L1 counters.
func (s *SharedSim) L1Stats(proc int) LevelStats { return s.l1[proc].stats }

// PerProcL1 returns every processor's private-L1 counters, indexed by
// processor.
func (s *SharedSim) PerProcL1() []LevelStats {
	out := make([]LevelStats, len(s.l1))
	for p := range s.l1 {
		out[p] = s.l1[p].stats
	}
	return out
}

// L2Stats returns the shared L2's aggregate counters. L2 misses are the
// hierarchy's memory transfers.
func (s *SharedSim) L2Stats() LevelStats { return s.l2.stats }

// ProcL2Stats attributes the shared L2's traffic to processor proc: the
// lookups proc's L1 misses triggered and how many of them missed.
func (s *SharedSim) ProcL2Stats(proc int) LevelStats { return s.perProcL2[proc] }

// ProcCost is processor proc's accumulated memory time under the cost
// model: every L1 access pays L1Hit, every L1 miss additionally pays the
// shared-L2 lookup, and every L2 miss charged to proc pays the memory
// transfer.
func (s *SharedSim) ProcCost(proc int, cm CostModel) float64 {
	l1 := s.l1[proc].stats
	return cm.L1Hit*float64(l1.Accesses) + cm.L2Hit*float64(l1.Misses) + cm.Mem*float64(s.perProcL2[proc].Misses)
}

// Makespan is the run's critical path in the cost model: the maximum
// per-processor cost.
func (s *SharedSim) Makespan(cm CostModel) float64 {
	var max float64
	for p := range s.l1 {
		if c := s.ProcCost(p, cm); c > max {
			max = c
		}
	}
	return max
}

// AMAT evaluates the cost model over the aggregate counters: total memory
// time divided by total L1 accesses.
func (s *SharedSim) AMAT(cm CostModel) float64 {
	var acc, miss int64
	for p := range s.l1 {
		acc += s.l1[p].stats.Accesses
		miss += s.l1[p].stats.Misses
	}
	return cm.AMAT(acc, miss, s.l2.stats.Misses)
}

// SimulateSharedLog replays a recorded multiprocessor trace through a
// fresh SharedSim, honouring the log's measured window (accesses before
// the window warm every level but are not counted), and returns the
// simulator with its windowed counters. The trace's processor count must
// match cfg.Procs. This is the pointwise oracle ProfileShared's one-pass
// grid is checked against when both replay one recorded trace.
func SimulateSharedLog(pl *trace.ProcLog, cfg SharedConfig) (*SharedSim, error) {
	if pl.Procs() != cfg.Procs {
		return nil, fmt.Errorf("hierarchy: trace has %d processors, config wants %d", pl.Procs(), cfg.Procs)
	}
	sim, err := NewSharedSim(cfg)
	if err != nil {
		return nil, err
	}
	pl.ForEachRunWindowed(sim.ResetStats, sim.RecordRun)
	sim.PublishMetrics(pl.Metrics())
	return sim, nil
}

// PublishMetrics records the windowed traffic into reg (no-op when reg is
// nil): hier.sim.l1.{accesses,hits,misses} summed over the processors'
// private L1s, and hier.sim.l2.* for the shared L2.
func (s *SharedSim) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	var l1 LevelStats
	for p := range s.l1 {
		st := s.l1[p].stats
		l1.Accesses += st.Accesses
		l1.Hits += st.Hits
		l1.Misses += st.Misses
	}
	publishLevelStats(reg, "hier.sim.l1", l1)
	publishLevelStats(reg, "hier.sim.l2", s.l2.stats)
}
