package hierarchy

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/obs"
	"streamsched/internal/trace"
)

// HierSpec is an (L1, L2) evaluation grid over one recorded trace: every
// pairing of an L1 design point with an L2 design point is evaluated, all
// from a single log. The composition models the non-inclusive hierarchy
// (each L1 point's miss stream is the L2's reference stream); exclusive
// hierarchies additionally depend on the L1 eviction stream and are served
// by Sim only.
type HierSpec struct {
	// Block is the granularity the trace was recorded at, in words. Every
	// L1 level must use it as its block size (the trace cannot be refined
	// below its recording granularity).
	Block int64
	// L1s are the first-level design points.
	L1s []Level
	// L2s are the second-level design points; each L2 block size must be a
	// multiple of Block.
	L2s []Level
}

// Validate checks the grid.
func (s HierSpec) Validate() error {
	if s.Block <= 0 {
		return fmt.Errorf("hierarchy: recording block must be positive, got %d", s.Block)
	}
	if len(s.L1s) == 0 || len(s.L2s) == 0 {
		return fmt.Errorf("hierarchy: spec needs at least one L1 and one L2 level, got %d/%d", len(s.L1s), len(s.L2s))
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

// Config returns the two-level simulator configuration of one grid point.
func (s HierSpec) Config(i, j int) Config {
	return Config{L1: s.L1s[i], L2: s.L2s[j], Mode: NonInclusive}
}

// HierCurves is the profile of one trace under a HierSpec: the exact
// per-level miss counts of the non-inclusive hierarchy at every (L1, L2)
// grid point, from one recorded execution.
type HierCurves struct {
	Spec HierSpec
	// Accesses is the number of counted (in-window) L1 block accesses.
	Accesses int64
	// L1Misses[i] is the exact miss count of L1 point i — which is also
	// the L2's access count under that L1.
	L1Misses []int64
	// L2Misses[i][j] is the exact miss count of L2 point j behind L1 point
	// i: the hierarchy's memory transfers at grid point (i, j).
	L2Misses [][]int64
}

// Point returns the per-level miss counts at grid point (i, j).
func (c *HierCurves) Point(i, j int) (l1, l2 int64) {
	return c.L1Misses[i], c.L2Misses[i][j]
}

// AMAT evaluates the cost model at grid point (i, j).
func (c *HierCurves) AMAT(i, j int, cm CostModel) float64 {
	return cm.AMAT(c.Accesses, c.L1Misses[i], c.L2Misses[i][j])
}

// l2Group is one (block ratio, set count) family of L2 profilers behind a
// single L1 filter: the per-set Mattson stacks answer every LRU way count
// of the family at once, and the FIFO replicas answer the replayed ways.
type l2Group struct {
	ratio int64
	assoc *trace.AssocProfiler // nil unless some L2 point wants LRU
	fifo  *trace.FIFOProfiler  // nil unless some L2 point wants FIFO

	assocCurve *trace.AssocCurve
	fifoCurve  *trace.FIFOCurve
}

// l2Slot locates one L2 design point inside its filter's groups.
type l2Slot struct {
	group int
	ways  int64
	fifo  bool
}

// l1Filter is one L1 design point's exact replica: a cachesim.Bank that
// filters the trace, plus the L2 profiler groups fed by its miss stream.
type l1Filter struct {
	bank   *cachesim.Bank
	misses int64 // in-window misses, cross-checked against ProfileOrgs
	groups []*l2Group
	slots  []l2Slot // per L2 design point
}

// touch runs one trace access through the filter; on a miss the filtered
// block feeds every L2 group at its own granularity.
func (f *l1Filter) touch(blk int64) {
	if f.bank.Access(blk) {
		return
	}
	f.bank.Insert(blk)
	f.misses++
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
func (f *l1Filter) resetCounts() {
	f.misses = 0
	for _, g := range f.groups {
		if g.assoc != nil {
			g.assoc.ResetCounts()
		}
		if g.fifo != nil {
			g.fifo.ResetCounts()
		}
	}
}

// l2Family collects one (block ratio, set count) family's profiling
// demands. The build is two-phase because a FIFOProfiler's way list is
// fixed at construction: first every family collects its demands
// (l2Families), then the profilers are made (newL2Groups).
type l2Family struct {
	ratio    int64
	sets     int64
	lru      bool
	fifoWays []int64
}

// l2Families groups L2 design points by (block ratio, set count) so every
// L2 organisation sharing a family shares one profiling pass, and returns
// each point's slot in the grouping. The grouping depends only on the L2
// grid, so it is shared by every L1 point (and, in the shared-L2 profiler,
// by every processor).
func l2Families(block int64, l2s []Level) ([]*l2Family, []l2Slot) {
	famIdx := make(map[[2]int64]int)
	var fams []*l2Family
	slots := make([]l2Slot, len(l2s))
	for j, l2 := range l2s {
		ratio := l2.Block / block
		key := [2]int64{ratio, l2.Sets()}
		fi, ok := famIdx[key]
		if !ok {
			fi = len(fams)
			famIdx[key] = fi
			fams = append(fams, &l2Family{ratio: ratio, sets: l2.Sets()})
		}
		if l2.Policy == cachesim.FIFO {
			fams[fi].fifoWays = append(fams[fi].fifoWays, l2.EffWays())
		} else {
			fams[fi].lru = true
		}
		slots[j] = l2Slot{group: fi, ways: l2.EffWays(), fifo: l2.Policy == cachesim.FIFO}
	}
	return fams, slots
}

// newL2Group instantiates one family's fresh profilers.
func newL2Group(fam *l2Family) *l2Group {
	g := &l2Group{ratio: fam.ratio}
	if fam.lru {
		g.assoc = trace.NewAssocProfiler(fam.sets)
	}
	if len(fam.fifoWays) > 0 {
		g.fifo = trace.NewFIFOProfiler(fam.sets, fam.fifoWays)
	}
	return g
}

// newL2Groups instantiates one fresh set of profilers per family.
func newL2Groups(fams []*l2Family) []*l2Group {
	groups := make([]*l2Group, len(fams))
	for fi, fam := range fams {
		groups[fi] = newL2Group(fam)
	}
	return groups
}

// l2MissRow finalises the groups' profilers into curves (idempotent
// across filters sharing nothing — each filter owns its groups) and
// extracts one filter's L2 miss counts, in L2-spec order. Shared by the
// uniprocessor (l1Filter) and shared-L2 (sharedFilter) profilers.
func l2MissRow(groups []*l2Group, slots []l2Slot) ([]int64, error) {
	for _, g := range groups {
		if g.assoc != nil && g.assocCurve == nil {
			g.assocCurve = g.assoc.Curve()
		}
		if g.fifo != nil && g.fifoCurve == nil {
			g.fifoCurve = g.fifo.Curve()
		}
	}
	row := make([]int64, len(slots))
	for j, slot := range slots {
		g := groups[slot.group]
		if slot.fifo {
			m, ok := g.fifoCurve.Misses(slot.ways)
			if !ok {
				return nil, fmt.Errorf("hierarchy: internal: L2 point %d FIFO ways %d not replayed", j, slot.ways)
			}
			row[j] = m
		} else {
			row[j] = g.assocCurve.Misses(slot.ways)
		}
	}
	return row, nil
}

// buildFilters assembles one l1Filter per L1 design point.
func buildFilters(spec HierSpec) []*l1Filter {
	fams, slots := l2Families(spec.Block, spec.L2s)
	filters := make([]*l1Filter, len(spec.L1s))
	for i, l1 := range spec.L1s {
		filters[i] = &l1Filter{
			bank:   l1.bank(),
			slots:  slots,
			groups: newL2Groups(fams),
		}
	}
	return filters
}

// hierOrgSpecs groups the L1 design points into organisation specs by
// set count (FIFO points adding their way counts to the family's replay
// list, every point raising the spec's MaxWays to its own way count so
// the L1 stacks are truncated at the deepest point the grid evaluates),
// returning the set-count → spec-index map used to find each point's
// curves again. Shared by the sequential and sharded hierarchy profilers.
func hierOrgSpecs(l1s []Level) ([]trace.OrgSpec, map[int64]int) {
	specIdx := make(map[int64]int)
	var orgSpecs []trace.OrgSpec
	for _, l1 := range l1s {
		sets := l1.Sets()
		idx, ok := specIdx[sets]
		if !ok {
			idx = len(orgSpecs)
			specIdx[sets] = idx
			orgSpecs = append(orgSpecs, trace.OrgSpec{Sets: sets})
		}
		if l1.Policy == cachesim.FIFO {
			orgSpecs[idx].FIFOWays = append(orgSpecs[idx].FIFOWays, l1.EffWays())
		}
		if w := l1.EffWays(); w > orgSpecs[idx].MaxWays {
			orgSpecs[idx].MaxWays = w
		}
	}
	return orgSpecs, specIdx
}

// assembleHier builds the HierCurves result from the organisation curves,
// each L1 point's windowed filter miss count, and each point's L2 groups,
// cross-checking the filter against the curve — two independent
// implementations of every L1 point agreeing access for access.
func assembleHier(spec HierSpec, orgCurves []*trace.OrgCurves, specIdx map[int64]int,
	filterMisses []int64, groups [][]*l2Group, slots []l2Slot) (*HierCurves, error) {

	out := &HierCurves{
		Spec:     spec,
		L1Misses: make([]int64, len(spec.L1s)),
		L2Misses: make([][]int64, len(spec.L1s)),
	}
	if len(orgCurves) > 0 {
		if c := orgCurves[0].LRU; c != nil {
			out.Accesses = c.Accesses
		}
	}
	for pi, l1 := range spec.L1s {
		oc := orgCurves[specIdx[l1.Sets()]]
		misses, ok := oc.Misses(l1.EffWays(), l1.Policy == cachesim.FIFO)
		if !ok {
			return nil, fmt.Errorf("hierarchy: internal: L1 point %d not covered by its organisation curve", pi)
		}
		if misses != filterMisses[pi] {
			return nil, fmt.Errorf("hierarchy: internal: L1 point %d filter saw %d misses, curve says %d",
				pi, filterMisses[pi], misses)
		}
		out.L1Misses[pi] = misses
		var err error
		out.L2Misses[pi], err = l2MissRow(groups[pi], slots)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// publishHierGroupMetrics records one hierarchy pass's filter and L2
// totals (no-op when reg is nil): the filter-stream length (accesses the
// L1 filters let through — the combined length of the streams that fed
// the L2 profilers), the L2 timeline work, and the grid size.
func publishHierGroupMetrics(reg *obs.Registry, filterMisses int64, groups [][]*l2Group, points int) {
	if reg == nil {
		return
	}
	var l2Ops int64
	for _, gs := range groups {
		for _, g := range gs {
			if g.assoc != nil {
				l2Ops += g.assoc.TimelineOps()
			}
		}
	}
	reg.Counter("hier.filter.misses").Add(filterMisses)
	reg.Counter("trace.profile.timeline.ops").Add(l2Ops)
	reg.Counter("hier.profile.points").Add(int64(points))
}

// ProfileHier evaluates the whole (L1, L2) grid from one recorded log in
// a single replay: the organisation profilers (exact L1 curves) and the
// per-point L1 filters (whose miss streams drive the L2 profilers) ride
// the same ForEach, so a spilled trace is read off disk exactly once. The
// replay honours the log's measured window, and the filters' windowed miss
// counts are cross-checked against the organisation curves — two
// independent implementations of every L1 point agreeing access for
// access. ProfileHierJobs shards the same computation across a worker
// pool with byte-identical results.
func ProfileHier(l *trace.Log, spec HierSpec) (*HierCurves, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	// L1 curves via the PR 2 organisation profiler.
	orgSpecs, specIdx := hierOrgSpecs(spec.L1s)
	orgProfs, err := trace.NewOrgProfilers(orgSpecs)
	if err != nil {
		return nil, err
	}

	// One pass drives both the L1 curves and the filtered L2 profilers.
	reg := l.Metrics()
	stop := reg.Timer("hier.profile").Start()
	filters := buildFilters(spec)
	err = l.ForEachWindowed(func() {
		orgProfs.ResetCounts()
		for _, f := range filters {
			f.resetCounts()
		}
	}, func(blk int64) {
		orgProfs.Touch(blk)
		for _, f := range filters {
			f.touch(blk)
		}
	})
	if err != nil {
		return nil, err
	}
	orgCurves := orgProfs.Curves()

	misses := make([]int64, len(filters))
	groups := make([][]*l2Group, len(filters))
	var totalMisses int64
	for i, f := range filters {
		misses[i] = f.misses
		groups[i] = f.groups
		totalMisses += f.misses
	}
	out, err := assembleHier(spec, orgCurves, specIdx, misses, groups, filters[0].slots)
	if err != nil {
		return nil, err
	}
	stop()
	orgProfs.PublishMetrics(reg, orgCurves)
	publishHierGroupMetrics(reg, totalMisses, groups, len(spec.L1s)*len(spec.L2s))
	return out, nil
}
