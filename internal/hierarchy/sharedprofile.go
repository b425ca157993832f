package hierarchy

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// SharedSpec is an (L1, L2) evaluation grid over one recorded
// multiprocessor trace: every pairing of a private-L1 design point with a
// shared-L2 design point is evaluated from a single interleaved log. The
// composition is exact because, with non-inclusive private L1s, the shared
// L2's reference stream is precisely the interleaving of the per-processor
// L1 miss streams — a deterministic function of the recorded trace (which
// fixes the interleaving) and the L1 organisation alone.
type SharedSpec struct {
	// Block is the granularity the trace was recorded at, in words. Every
	// L1 level must use it as its block size.
	Block int64
	// Procs is the processor count the trace was recorded with; every
	// processor gets a private replica of each L1 design point.
	Procs int
	// L1s are the private first-level design points.
	L1s []Level
	// L2s are the shared second-level design points; each L2 block size
	// must be a multiple of Block.
	L2s []Level
}

// Validate checks the grid.
func (s SharedSpec) Validate() error {
	if s.Procs < 1 {
		return fmt.Errorf("hierarchy: shared spec needs >= 1 processor, got %d", s.Procs)
	}
	if s.Block <= 0 {
		return fmt.Errorf("hierarchy: recording block must be positive, got %d", s.Block)
	}
	if len(s.L1s) == 0 || len(s.L2s) == 0 {
		return fmt.Errorf("hierarchy: shared spec needs at least one L1 and one L2 level, got %d/%d", len(s.L1s), len(s.L2s))
	}
	for i, lv := range s.L1s {
		if err := lv.Validate(); err != nil {
			return fmt.Errorf("L1[%d]: %w", i, err)
		}
		if lv.Block != s.Block {
			return fmt.Errorf("hierarchy: L1[%d] block %d must equal the recording block %d", i, lv.Block, s.Block)
		}
	}
	for j, lv := range s.L2s {
		if err := lv.Validate(); err != nil {
			return fmt.Errorf("L2[%d]: %w", j, err)
		}
		if lv.Block%s.Block != 0 {
			return fmt.Errorf("hierarchy: L2[%d] block %d not a multiple of the recording block %d", j, lv.Block, s.Block)
		}
	}
	return nil
}

// Config returns the shared-simulator configuration of one grid point.
func (s SharedSpec) Config(i, j int) SharedConfig {
	return SharedConfig{Procs: s.Procs, L1: s.L1s[i], L2: s.L2s[j]}
}

// SharedCurves is the profile of one multiprocessor trace under a
// SharedSpec: exact per-processor private-L1 miss counts and exact shared
// L2 miss counts at every (L1, L2) grid point, from one recorded parallel
// execution.
type SharedCurves struct {
	Spec SharedSpec
	// Accesses is the number of counted (in-window) L1 block accesses,
	// summed over processors; ProcAccesses breaks it down by processor.
	Accesses     int64
	ProcAccesses []int64
	// L1Misses[i][p] is the exact miss count of processor p's private
	// replica of L1 point i. Summed over p it is the shared L2's access
	// count under that L1.
	L1Misses [][]int64
	// L2Misses[i][j] is the exact aggregate miss count of shared-L2 point
	// j behind private-L1 point i: the hierarchy's memory transfers at
	// grid point (i, j).
	L2Misses [][]int64
}

// L1Total returns L1 point i's miss count summed over processors — the
// shared L2's reference-stream length at that point.
func (c *SharedCurves) L1Total(i int) int64 {
	var n int64
	for _, m := range c.L1Misses[i] {
		n += m
	}
	return n
}

// Point returns the aggregate per-level miss counts at grid point (i, j).
func (c *SharedCurves) Point(i, j int) (l1, l2 int64) {
	return c.L1Total(i), c.L2Misses[i][j]
}

// AMAT evaluates the cost model at grid point (i, j) over the aggregate
// counters. Per-processor makespans need per-processor L2 attribution,
// which the aggregate Mattson profile does not carry — use
// SimulateSharedLog (or parallel.RunShared) for those.
func (c *SharedCurves) AMAT(i, j int, cm CostModel) float64 {
	return cm.AMAT(c.Accesses, c.L1Total(i), c.L2Misses[i][j])
}

// sharedFilter is one L1 design point's bank of exact private replicas —
// one cachesim.Bank per processor — plus the shared-L2 profiler groups fed
// by the interleaved miss stream.
type sharedFilter struct {
	banks  []*cachesim.Bank
	misses []int64 // in-window misses per processor
	groups []*l2Group
	slots  []l2Slot
}

// touch runs one tagged trace access through processor proc's private
// replica; on a miss the filtered block feeds every shared-L2 group at its
// own granularity, in global emission order.
func (f *sharedFilter) touch(proc int, blk int64) {
	b := f.banks[proc]
	if b.Access(blk) {
		return
	}
	b.Insert(blk)
	f.misses[proc]++
	for _, g := range f.groups {
		b2 := coarsen(blk, g.ratio)
		if g.assoc != nil {
			g.assoc.Touch(b2)
		}
		if g.fifo != nil {
			g.fifo.Touch(b2)
		}
	}
}

// resetCounts starts the measured window: miss counters and L2 histograms
// reset, warm cache and stack state kept.
func (f *sharedFilter) resetCounts() {
	for p := range f.misses {
		f.misses[p] = 0
	}
	for _, g := range f.groups {
		if g.assoc != nil {
			g.assoc.ResetCounts()
		}
		if g.fifo != nil {
			g.fifo.ResetCounts()
		}
	}
}

// buildSharedFilters assembles one sharedFilter per L1 design point, with
// procs private replicas each, grouping the L2 points into (block ratio,
// set count) families exactly like the uniprocessor hierarchy profiler.
func buildSharedFilters(block int64, l1s, l2s []Level, procs int) []*sharedFilter {
	fams, slots := l2Families(block, l2s)
	filters := make([]*sharedFilter, len(l1s))
	for i, l1 := range l1s {
		f := &sharedFilter{
			banks:  make([]*cachesim.Bank, procs),
			misses: make([]int64, procs),
			slots:  slots,
			groups: newL2Groups(fams),
		}
		for p := range f.banks {
			f.banks[p] = l1.bank()
		}
		filters[i] = f
	}
	return filters
}

// ProfileShared evaluates the whole (L1, L2) grid from one recorded
// multiprocessor log in a single replay. Every L1 design point gets one
// exact private replica per processor; the interleaved miss stream those
// replicas emit — in the recorded global order — drives the shared-L2
// profilers (per-set Mattson stacks for LRU, multiplexed replicas for
// FIFO), so one parallel execution answers every (L1, L2) pairing. The
// replay honours the log's measured window. Experiment E21 cross-validates
// every grid point against SimulateSharedLog, whose L2 is an independent
// implementation (a policy-ordered Bank rather than the reuse-distance
// profilers).
func ProfileShared(pl *trace.ProcLog, spec SharedSpec) (*SharedCurves, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if pl.Procs() != spec.Procs {
		return nil, fmt.Errorf("hierarchy: trace has %d processors, spec wants %d", pl.Procs(), spec.Procs)
	}

	reg := pl.Metrics()
	stop := reg.Timer("hier.shared.profile").Start()
	filters := buildSharedFilters(spec.Block, spec.L1s, spec.L2s, spec.Procs)
	var accesses int64
	procAccesses := make([]int64, spec.Procs)
	err := pl.ForEachWindowed(func() {
		accesses = 0
		for p := range procAccesses {
			procAccesses[p] = 0
		}
		for _, f := range filters {
			f.resetCounts()
		}
	}, func(proc int, blk int64) {
		accesses++
		procAccesses[proc]++
		for _, f := range filters {
			f.touch(proc, blk)
		}
	})
	if err != nil {
		return nil, err
	}

	out := &SharedCurves{
		Spec:         spec,
		Accesses:     accesses,
		ProcAccesses: procAccesses,
		L1Misses:     make([][]int64, len(spec.L1s)),
		L2Misses:     make([][]int64, len(spec.L1s)),
	}
	for i, f := range filters {
		out.L1Misses[i] = f.misses
		out.L2Misses[i], err = l2MissRow(f.groups, f.slots)
		if err != nil {
			return nil, err
		}
	}
	stop()
	if reg != nil {
		reg.Counter("trace.profile.accesses").Add(accesses)
		reg.Counter("trace.profile.passes").Add(1)
		var filterMisses, l2Ops int64
		for i := range filters {
			filterMisses += out.L1Total(i)
			for _, g := range filters[i].groups {
				if g.assoc != nil {
					l2Ops += g.assoc.TimelineOps()
				}
			}
		}
		reg.Counter("hier.filter.misses").Add(filterMisses)
		reg.Counter("trace.profile.timeline.ops").Add(l2Ops)
		reg.Counter("hier.profile.points").Add(int64(len(spec.L1s) * len(spec.L2s)))
	}
	return out, nil
}
