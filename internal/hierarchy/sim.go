package hierarchy

import (
	"streamsched/internal/cachesim"
	"streamsched/internal/obs"
	"streamsched/internal/trace"
)

// Sim is the exact two-level simulator: an L1 whose misses are served by
// an L2, each level an independent cachesim.Bank. It consumes the same
// block-access stream the single-level simulator sees (block ids at L1
// granularity), so it can sit behind the execution machine's recorder tap
// or replay a recorded trace.Log. Sim is not safe for concurrent use.
type Sim struct {
	cfg    Config
	ratio  int64 // L2 block / L1 block
	l1, l2 *bankLevel
}

// bankLevel pairs a Bank with its traffic counters.
type bankLevel struct {
	bank  *cachesim.Bank
	stats LevelStats
}

// NewSim builds a simulator from cfg.
func NewSim(cfg Config) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Sim{
		cfg:   cfg,
		ratio: cfg.L2.Block / cfg.L1.Block,
		l1:    &bankLevel{bank: cfg.L1.bank()},
		l2:    &bankLevel{bank: cfg.L2.bank()},
	}, nil
}

// coarsen maps an L1 block id to its containing L2 block id (floored so
// negative ids stay collision-free).
func coarsen(blk, ratio int64) int64 {
	if ratio == 1 {
		return blk
	}
	if blk >= 0 {
		return blk / ratio
	}
	return -((-blk + ratio - 1) / ratio)
}

// Access feeds one L1-granularity block access through the hierarchy.
func (s *Sim) Access(blk int64) {
	s.l1.stats.Accesses++
	if s.l1.bank.Access(blk) {
		s.l1.stats.Hits++
		return
	}
	s.l1.stats.Misses++
	if s.cfg.Mode == Exclusive {
		s.accessExclusive(blk)
		return
	}
	// Non-inclusive: the L2 serves the miss and both levels fill; the L1
	// victim is dropped (clean-eviction model).
	s.l1.bank.Insert(blk)
	b2 := coarsen(blk, s.ratio)
	s.l2.stats.Accesses++
	if s.l2.bank.Access(b2) {
		s.l2.stats.Hits++
		return
	}
	s.l2.stats.Misses++
	s.l2.bank.Insert(b2)
}

// accessExclusive handles an L1 miss in exclusive (victim cache) mode: an
// L2 hit promotes the block out of the L2; either way the block fills the
// L1, and the L1's victim — the only path into the L2 — is inserted there.
func (s *Sim) accessExclusive(blk int64) {
	s.l2.stats.Accesses++
	// A hit always promotes the block out of the L2, so Remove is the
	// lookup: no point paying Access's policy reorder first.
	if s.l2.bank.Remove(blk) {
		s.l2.stats.Hits++
	} else {
		s.l2.stats.Misses++
	}
	if victim, evicted := s.l1.bank.Insert(blk); evicted {
		s.l2.bank.Insert(victim)
	}
}

// RecordRun implements trace.Recorder, so a Sim can be plugged straight
// into the execution machine in place of a trace: the pointwise oracle
// sees each touched range block by block.
func (s *Sim) RecordRun(base, n int64) {
	for end := base + n; base < end; base++ {
		s.Access(base)
	}
}

// ResetStats zeroes both levels' counters without disturbing cache
// contents — the warm-then-measure protocol.
func (s *Sim) ResetStats() {
	s.l1.stats = LevelStats{}
	s.l2.stats = LevelStats{}
}

// L1Stats returns the L1's traffic counters.
func (s *Sim) L1Stats() LevelStats { return s.l1.stats }

// L2Stats returns the L2's traffic counters. L2 misses are the
// hierarchy's memory transfers.
func (s *Sim) L2Stats() LevelStats { return s.l2.stats }

// SimulateLog replays a recorded trace through a fresh Sim, honouring the
// log's measured window (accesses before WindowStart warm both levels but
// are not counted), and returns the simulator with its windowed counters.
// This is pointwise two-level simulation — one full replay per (L1, L2)
// point — and the oracle ProfileHier's one-pass curves are validated
// against.
func SimulateLog(l *trace.Log, cfg Config) (*Sim, error) {
	sim, err := NewSim(cfg)
	if err != nil {
		return nil, err
	}
	l.ForEachRunWindowed(sim.ResetStats, sim.RecordRun)
	publishLevelStats(l.Metrics(), "hier.sim.l1", sim.L1Stats())
	publishLevelStats(l.Metrics(), "hier.sim.l2", sim.L2Stats())
	return sim, nil
}

// publishLevelStats surfaces one level's windowed traffic counters through
// the registry under <prefix>.{accesses,hits,misses}.
func publishLevelStats(reg *obs.Registry, prefix string, st LevelStats) {
	if reg == nil {
		return
	}
	reg.Counter(prefix + ".accesses").Add(st.Accesses)
	reg.Counter(prefix + ".hits").Add(st.Hits)
	reg.Counter(prefix + ".misses").Add(st.Misses)
}
