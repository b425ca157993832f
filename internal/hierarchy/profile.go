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
func (s HierSpec) Validate() error { return validateGrid(s.Block, s.L1s, s.L2s) }

// validateGrid checks an (L1, L2) grid against its recording block; both
// spec types share it.
func validateGrid(block int64, l1s, l2s []Level) error {
	if block <= 0 {
		return fmt.Errorf("hierarchy: recording block must be positive, got %d", block)
	}
	if len(l1s) == 0 || len(l2s) == 0 {
		return fmt.Errorf("hierarchy: spec needs at least one L1 and one L2 level, got %d/%d", len(l1s), len(l2s))
	}
	for i, lv := range l1s {
		if err := lv.Validate(); err != nil {
			return fmt.Errorf("L1[%d]: %w", i, err)
		}
		if lv.Block != block {
			return fmt.Errorf("hierarchy: L1[%d] block %d must equal the recording block %d", i, lv.Block, block)
		}
	}
	for j, lv := range l2s {
		if err := lv.Validate(); err != nil {
			return fmt.Errorf("L2[%d]: %w", j, err)
		}
		if lv.Block%block != 0 {
			return fmt.Errorf("hierarchy: L2[%d] block %d not a multiple of the recording block %d", j, lv.Block, block)
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

// filter is one L1 design point of a hierarchy pass: an exact
// cachesim.Bank replica and a windowed miss counter per processor (one
// processor in ProfileHier, the trace's count in ProfileShared), and the L2
// stage its miss stream — interleaved in recorded order — feeds: one
// trace.OrgProfilers per distinct L2 block ratio.
type filter struct {
	banks  []*cachesim.Bank
	misses []int64
	l2     []l2Stage
}

// l2Stage is the organisation profilers of the L2 points sharing one block
// ratio, fed the miss stream coarsened to that ratio.
type l2Stage struct {
	ratio int64
	prof  *trace.OrgProfilers
}

// l2Grid is the profiling shape of the L2 design points: grouped by block
// ratio, and within a ratio into organisation specs by set count exactly
// like the L1 points (hierOrgSpecs). It depends only on the L2 grid, so
// every L1 point's filter is built from the same one.
type l2Grid struct {
	levels  []Level
	shapes  []l2Shape // one per distinct block ratio, first-seen order
	shapeOf []int     // per L2 point: its ratio's shape
}

// l2Shape is what one l2Stage is built from and read back through.
type l2Shape struct {
	ratio   int64
	specs   []trace.OrgSpec
	specIdx map[int64]int // set count -> spec
}

func newL2Grid(block int64, l2s []Level) *l2Grid {
	g := &l2Grid{levels: l2s, shapeOf: make([]int, len(l2s))}
	at := make(map[int64]int)
	var byRatio [][]Level
	for j, l2 := range l2s {
		r := l2.Block / block
		k, ok := at[r]
		if !ok {
			k = len(byRatio)
			at[r] = k
			byRatio = append(byRatio, nil)
			g.shapes = append(g.shapes, l2Shape{ratio: r})
		}
		byRatio[k] = append(byRatio[k], l2)
		g.shapeOf[j] = k
	}
	for k := range g.shapes {
		g.shapes[k].specs, g.shapes[k].specIdx = hierOrgSpecs(byRatio[k])
	}
	return g
}

// newFilters assembles one filter per L1 design point, with procs private
// replicas each.
func (g *l2Grid) newFilters(l1s []Level, procs int) ([]*filter, error) {
	filters := make([]*filter, len(l1s))
	for i, l1 := range l1s {
		f := &filter{
			banks:  make([]*cachesim.Bank, procs),
			misses: make([]int64, procs),
			l2:     make([]l2Stage, len(g.shapes)),
		}
		for p := range f.banks {
			f.banks[p] = l1.bank()
		}
		for k, sh := range g.shapes {
			prof, err := trace.NewOrgProfilers(sh.specs)
			if err != nil {
				return nil, err
			}
			f.l2[k] = l2Stage{ratio: sh.ratio, prof: prof}
		}
		filters[i] = f
	}
	return filters, nil
}

// touch runs one trace access through processor proc's replica; on a miss
// the filtered block feeds every L2 stage at its own granularity.
func (f *filter) touch(proc int, blk int64) {
	b := f.banks[proc]
	if b.Access(blk) {
		return
	}
	b.Insert(blk)
	f.misses[proc]++
	for _, s := range f.l2 {
		s.prof.Touch(coarsen(blk, s.ratio))
	}
}

// resetCounts starts the measured window: miss counters and L2 histograms
// reset, warm cache and stack state kept.
func (f *filter) resetCounts() {
	clear(f.misses)
	for _, s := range f.l2 {
		s.prof.ResetCounts()
	}
}

// row extracts one filter's L2 miss counts, in L2-spec order.
func (g *l2Grid) row(f *filter) ([]int64, error) {
	curves := make([][]*trace.OrgCurves, len(f.l2))
	for k, s := range f.l2 {
		curves[k] = s.prof.Curves()
	}
	row := make([]int64, len(g.levels))
	for j, l2 := range g.levels {
		k := g.shapeOf[j]
		m, ok := levelMisses(curves[k], g.shapes[k].specIdx, l2)
		if !ok {
			return nil, fmt.Errorf("hierarchy: internal: L2 point %d not covered by its organisation curve", j)
		}
		row[j] = m
	}
	return row, nil
}

// levelMisses reads one design point's miss count off the organisation
// curves hierOrgSpecs grouped it into.
func levelMisses(curves []*trace.OrgCurves, specIdx map[int64]int, lv Level) (int64, bool) {
	return curves[specIdx[lv.Sets()]].Misses(lv.EffWays(), lv.Policy == cachesim.FIFO)
}

// hierOrgSpecs groups design points into organisation specs by set count
// (FIFO points adding their way counts to the family's replay list, every
// point raising the spec's MaxWays to its own way count so the stacks are
// truncated at the deepest point the grid evaluates), returning the
// set-count → spec-index map used to find each point's curves again. The
// L1 points and each block ratio's L2 points go through it alike.
func hierOrgSpecs(levels []Level) ([]trace.OrgSpec, map[int64]int) {
	specIdx := make(map[int64]int)
	var orgSpecs []trace.OrgSpec
	for _, lv := range levels {
		sets := lv.Sets()
		idx, ok := specIdx[sets]
		if !ok {
			idx = len(orgSpecs)
			specIdx[sets] = idx
			orgSpecs = append(orgSpecs, trace.OrgSpec{Sets: sets})
		}
		if lv.Policy == cachesim.FIFO {
			orgSpecs[idx].FIFOWays = append(orgSpecs[idx].FIFOWays, lv.EffWays())
		}
		if w := lv.EffWays(); w > orgSpecs[idx].MaxWays {
			orgSpecs[idx].MaxWays = w
		}
	}
	return orgSpecs, specIdx
}

// publishFilterMetrics records one hierarchy pass's filter and L2 totals
// (no-op when reg is nil): the filter-stream length (accesses the L1
// filters let through — the combined length of the streams that fed the L2
// profilers), the L2 timeline work, and the grid size.
func publishFilterMetrics(reg *obs.Registry, filters []*filter, points int) {
	if reg == nil {
		return
	}
	var misses, l2Ops int64
	for _, f := range filters {
		for _, m := range f.misses {
			misses += m
		}
		for _, s := range f.l2 {
			l2Ops += s.prof.TimelineOps()
		}
	}
	reg.Counter("hier.filter.misses").Add(misses)
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
// access.
func ProfileHier(l *trace.Log, spec HierSpec) (*HierCurves, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	grid := newL2Grid(spec.Block, spec.L2s)
	filters, err := grid.newFilters(spec.L1s, 1)
	if err != nil {
		return nil, err
	}
	return profileHier(l, spec, grid, filters)
}

// profileHier is ProfileHier over already-built filters.
func profileHier(l *trace.Log, spec HierSpec, grid *l2Grid, filters []*filter) (*HierCurves, error) {
	// L1 curves via the organisation profilers.
	orgSpecs, specIdx := hierOrgSpecs(spec.L1s)
	orgProfs, err := trace.NewOrgProfilers(orgSpecs)
	if err != nil {
		return nil, err
	}

	// One pass drives both the L1 curves and the filtered L2 profilers.
	reg := l.Metrics()
	stop := reg.Timer("hier.profile").Start()
	err = l.ForEachWindowed(func() {
		orgProfs.ResetCounts()
		for _, f := range filters {
			f.resetCounts()
		}
	}, func(blk int64) {
		orgProfs.Touch(blk)
		for _, f := range filters {
			f.touch(0, blk)
		}
	})
	if err != nil {
		return nil, err
	}
	orgCurves := orgProfs.Curves()

	out := &HierCurves{
		Spec:     spec,
		Accesses: orgCurves[0].LRU.Accesses,
		L1Misses: make([]int64, len(spec.L1s)),
		L2Misses: make([][]int64, len(spec.L1s)),
	}
	for i, l1 := range spec.L1s {
		f := filters[i]
		misses, ok := levelMisses(orgCurves, specIdx, l1)
		if !ok {
			return nil, fmt.Errorf("hierarchy: internal: L1 point %d not covered by its organisation curve", i)
		}
		if misses != f.misses[0] {
			return nil, fmt.Errorf("hierarchy: internal: L1 point %d filter saw %d misses, curve says %d",
				i, f.misses[0], misses)
		}
		out.L1Misses[i] = misses
		if out.L2Misses[i], err = grid.row(f); err != nil {
			return nil, err
		}
	}
	stop()
	orgProfs.PublishMetrics(reg, orgCurves)
	publishFilterMetrics(reg, filters, len(spec.L1s)*len(spec.L2s))
	return out, nil
}

// ProfileHierJobs is ProfileHier.
//
// Deprecated: jobs and decodeJobs are ignored; the four-argument form is
// kept only because the frozen bench/ module calls it.
func ProfileHierJobs(l *trace.Log, spec HierSpec, jobs, decodeJobs int) (*HierCurves, error) {
	return ProfileHier(l, spec)
}
