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

// l2Grid is the profiling shape of the L2 design points: grouped by block
// ratio, and within a ratio into organisation specs by set count exactly
// like the L1 points (hierOrgSpecs). It depends only on the L2 grid, so
// every L1 point's lane is built from the same one.
type l2Grid struct {
	levels  []Level
	shapes  []l2Shape // one per distinct block ratio, first-seen order
	shapeOf []int     // per L2 point: its ratio's shape
}

// l2Shape is what one block ratio's lanes are built from and read back
// through.
type l2Shape struct {
	ratio   int64
	levels  []Level
	specs   []trace.OrgSpec
	specIdx map[int64]int // set count -> spec
}

func newL2Grid(block int64, l2s []Level) *l2Grid {
	g := &l2Grid{levels: l2s, shapeOf: make([]int, len(l2s))}
	at := make(map[int64]int)
	for j, l2 := range l2s {
		r := l2.Block / block
		k, ok := at[r]
		if !ok {
			k = len(g.shapes)
			at[r] = k
			g.shapes = append(g.shapes, l2Shape{ratio: r})
		}
		g.shapes[k].levels = append(g.shapes[k].levels, l2)
		g.shapeOf[j] = k
	}
	for k := range g.shapes {
		sh := &g.shapes[k]
		sh.specs, sh.specIdx = hierOrgSpecs(sh.levels)
	}
	return g
}

// laneGroup is up to 64 consecutive L1 design points of a hierarchy pass,
// one lane each. It holds no cache: the stack touch of the processor's L1
// organisation profilers has decided, for every point at once, whether an
// access missed, and table reads those verdicts as one mask. Per L2 block
// ratio one trace.OrgLanes takes the access, coarsened to the ratio, in
// the lanes of the points that missed — so each lane's stream is its
// point's misses, interleaved across processors in access order.
type laneGroup struct {
	first int // the group's first L1 point: lane i is point first+i
	table *trace.MaskTable
	lanes []*trace.OrgLanes // per l2Grid shape
}

// SharedProfiler is the one hierarchy profiler, for P processors with
// private L1s in front of a shared L2: per processor one
// trace.OrgProfilers over the L1 grid's organisation specs (same-set-count
// points share a single stack touch), and per 64 L1 design points one
// laneGroup, whose lanes profile the shared L2 behind each point. It
// profiles while a parallel run goes — RecordRun is the executor's
// per-processor sink and ResetCounts its window mark — and ProfileShared
// feeds it from a recorded ProcLog instead. HierProfiler is its
// one-processor form.
type SharedProfiler struct {
	spec    SharedSpec
	specIdx map[int64]int         // set count -> spec of the processors' profilers
	orgs    []*trace.OrgProfilers // per processor
	groups  []laneGroup
	grid    *l2Grid
}

// NewSharedProfiler validates spec and builds its profiler.
func NewSharedProfiler(spec SharedSpec) (*SharedProfiler, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	specs, specIdx := hierOrgSpecs(spec.L1s)
	g := newL2Grid(spec.Block, spec.L2s)
	st := &SharedProfiler{spec: spec, specIdx: specIdx, orgs: make([]*trace.OrgProfilers, spec.Procs), grid: g}
	for p := range st.orgs {
		orgs, err := trace.NewOrgProfilers(specs)
		if err != nil {
			return nil, err
		}
		st.orgs[p] = orgs
	}
	pts := make([]trace.OrgPoint, len(spec.L1s))
	for i, l1 := range spec.L1s {
		pt, ok := st.orgs[0].Point(specIdx[l1.Sets()], l1.EffWays(), l1.Policy == cachesim.FIFO)
		if !ok {
			return nil, fmt.Errorf("hierarchy: internal: L1 point %d not covered by its organisation profilers", i)
		}
		pts[i] = pt
	}
	for first := 0; first < len(pts); first += 64 {
		group := pts[first:min(first+64, len(pts))]
		table, err := st.orgs[0].MaskTable(group)
		if err != nil {
			return nil, err
		}
		lg := laneGroup{first: first, table: table, lanes: make([]*trace.OrgLanes, len(g.shapes))}
		for k, sh := range g.shapes {
			if lg.lanes[k], err = trace.NewOrgLanes(sh.specs, len(group)); err != nil {
				return nil, err
			}
		}
		st.groups = append(st.groups, lg)
	}
	return st, nil
}

// RecordRun runs processor proc's accesses to the n blocks base, base+1,
// … through the hierarchy, in that order.
func (st *SharedProfiler) RecordRun(proc int, base, n int64) {
	for end := base + n; base != end; base++ {
		st.touch(proc, base)
	}
}

// touch runs one access by processor proc through its L1 profilers; each
// group reads the points it missed at as one mask, and the block feeds
// those points' lanes at every L2 block ratio.
func (st *SharedProfiler) touch(proc int, blk int64) {
	orgs := st.orgs[proc]
	orgs.Touch(blk)
	for i := range st.groups {
		g := &st.groups[i]
		mask := orgs.MissMask(g.table)
		if mask == 0 {
			continue
		}
		for k, lanes := range g.lanes {
			lanes.Touch(coarsen(blk, st.grid.shapes[k].ratio), mask)
		}
	}
}

// StartWarmup says the accesses until ResetCounts only warm the caches.
// The L2 lanes then warm up by last use (trace.OrgLanes.StartWarmup):
// nothing reads their verdicts. The L1 profilers stay live, because their
// verdicts are the lanes' masks.
func (st *SharedProfiler) StartWarmup() {
	for _, g := range st.groups {
		for _, lanes := range g.lanes {
			lanes.StartWarmup()
		}
	}
}

// ResetCounts starts the measured window: histograms and miss counters
// reset, warm stack state kept.
func (st *SharedProfiler) ResetCounts() {
	for _, orgs := range st.orgs {
		orgs.ResetCounts()
	}
	for _, g := range st.groups {
		for _, lanes := range g.lanes {
			lanes.ResetCounts()
		}
	}
}

// collect closes the pass: per-processor counted accesses, L1 miss counts
// by (point, processor) off each processor's L1 curves, and L2 miss counts
// by (L1 point, L2 point) off the lanes. A conservation check rides along
// for free: every lane must have counted exactly the misses its point's
// L1 curves count, summed over processors — the mask that fed it and the
// curves come from the same stack touches.
func (st *SharedProfiler) collect() (*SharedCurves, error) {
	out := &SharedCurves{Spec: st.spec, ProcAccesses: make([]int64, len(st.orgs)),
		L1Misses: make([][]int64, len(st.spec.L1s)), L2Misses: make([][]int64, len(st.spec.L1s))}
	for i := range out.L1Misses {
		out.L1Misses[i] = make([]int64, len(st.orgs))
	}
	for p, orgs := range st.orgs {
		curves := orgs.Curves()
		out.ProcAccesses[p] = curves[0].LRU.Accesses
		out.Accesses += curves[0].LRU.Accesses
		for i, lv := range st.spec.L1s {
			out.L1Misses[i][p], _ = levelMisses(curves, st.specIdx, lv) // covered: NewSharedProfiler resolved its Point
		}
	}
	for _, g := range st.groups {
		for i := g.first; i < min(g.first+64, len(st.spec.L1s)); i++ {
			var err error
			if out.L2Misses[i], err = st.grid.row(g, i-g.first, out.L1Total(i)); err != nil {
				return nil, fmt.Errorf("hierarchy: internal: L1 point %d: %w", i, err)
			}
		}
	}
	return out, nil
}

// row extracts one lane's L2 miss counts, in L2-spec order, checking that
// each block ratio's lane counted the misses the lane's L1 point let
// through.
func (g *l2Grid) row(lg laneGroup, lane int, misses int64) ([]int64, error) {
	curves := make([][]*trace.OrgCurves, len(lg.lanes))
	for k, lanes := range lg.lanes {
		curves[k] = lanes.Curves(lane)
		if got := curves[k][0].LRU.Accesses; got != misses {
			return nil, fmt.Errorf("its L1 curves count %d misses, its L2 lane at block ratio %d counted %d accesses", misses, g.shapes[k].ratio, got)
		}
	}
	row := make([]int64, len(g.levels))
	for j, l2 := range g.levels {
		k := g.shapeOf[j]
		m, ok := levelMisses(curves[k], g.shapes[k].specIdx, l2)
		if !ok {
			return nil, fmt.Errorf("L2 point %d not covered by its organisation curve", j)
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
// (trace.AddPoint), returning the set-count → spec-index map used to find
// each point's curves again. The L1 points and each block ratio's L2 points
// go through it alike.
func hierOrgSpecs(levels []Level) ([]trace.OrgSpec, map[int64]int) {
	specIdx := make(map[int64]int)
	var specs []trace.OrgSpec
	for _, lv := range levels {
		specs = trace.AddPoint(specs, specIdx, lv.Sets(), lv.EffWays(), lv.Policy == cachesim.FIFO)
	}
	return specs, specIdx
}

// Curves closes the pass: the exact grid, timed under hier.shared.profile
// and published into reg (nil: neither). The time covers extraction and
// the in-band checks only — the touches happened as the accesses came.
func (st *SharedProfiler) Curves(reg *obs.Registry) (*SharedCurves, error) {
	return st.curves(reg, "hier.shared.profile")
}

// curves is collect timed into the named histogram, then published.
func (st *SharedProfiler) curves(reg *obs.Registry, name string) (*SharedCurves, error) {
	stop := reg.Histogram(name).Start()
	out, err := st.collect()
	stop()
	if err != nil {
		return nil, err
	}
	st.publish(reg, out)
	return out, nil
}

// publish records one hierarchy pass's totals (no-op when reg is nil): the
// counted accesses, the filter-stream length (accesses the L1 points let
// through — the combined length of the streams that fed the L2 lanes), the
// L1 profilers' timeline work (the lanes keep no timeline), and the grid
// size.
func (st *SharedProfiler) publish(reg *obs.Registry, out *SharedCurves) {
	if reg == nil {
		return
	}
	var misses, ops int64
	for _, orgs := range st.orgs {
		ops += orgs.TimelineOps()
	}
	for i := range out.L1Misses {
		misses += out.L1Total(i)
	}
	reg.Counter("trace.profile.accesses").Add(out.Accesses)
	reg.Counter("trace.profile.timeline.ops").Add(ops)
	reg.Counter("trace.profile.passes").Add(1)
	reg.Counter("hier.filter.misses").Add(misses)
	reg.Counter("hier.profile.points").Add(int64(len(st.spec.L1s) * len(st.spec.L2s)))
}

// HierProfiler is SharedProfiler with one processor: the uniprocessor
// hierarchy profiler, and a trace.Recorder, so an execution machine
// profiles the whole (L1, L2) grid while it runs, with ResetCounts as its
// window mark. ProfileHier feeds it from a recorded log instead.
type HierProfiler struct {
	spec HierSpec
	st   *SharedProfiler
}

// NewHierProfiler validates spec and builds its profiler.
func NewHierProfiler(spec HierSpec) (*HierProfiler, error) {
	st, err := NewSharedProfiler(SharedSpec{Block: spec.Block, Procs: 1, L1s: spec.L1s, L2s: spec.L2s})
	if err != nil {
		return nil, err
	}
	return &HierProfiler{spec: spec, st: st}, nil
}

// RecordRun runs accesses to the n blocks base, base+1, … through the
// hierarchy, in that order.
func (h *HierProfiler) RecordRun(base, n int64) { h.st.RecordRun(0, base, n) }

// StartWarmup is SharedProfiler.StartWarmup.
func (h *HierProfiler) StartWarmup() { h.st.StartWarmup() }

// ResetCounts starts the measured window, keeping warm stack state.
func (h *HierProfiler) ResetCounts() { h.st.ResetCounts() }

// Curves closes the pass like SharedProfiler.Curves, timed under
// hier.profile.
func (h *HierProfiler) Curves(reg *obs.Registry) (*HierCurves, error) {
	sc, err := h.st.curves(reg, "hier.profile")
	if err != nil {
		return nil, err
	}
	out := &HierCurves{Spec: h.spec, Accesses: sc.Accesses, L1Misses: make([]int64, len(sc.L1Misses)), L2Misses: sc.L2Misses}
	for i, m := range sc.L1Misses {
		out.L1Misses[i] = m[0]
	}
	return out, nil
}

// ProfileHier evaluates the whole (L1, L2) grid from one recorded log in
// a single replay through a HierProfiler: each access is one touch of the
// L1 organisation profilers, which yields the exact L1 curves and, per L1
// point, whether the access goes on to that point's L2 profilers. The
// replay honours the log's measured window, so the curves equal those of
// the same profiler recording the execution live.
func ProfileHier(l *trace.Log, spec HierSpec) (*HierCurves, error) {
	h, err := NewHierProfiler(spec)
	if err != nil {
		return nil, err
	}
	l.ForEachRunWindowed(h.ResetCounts, h.RecordRun)
	return h.Curves(l.Metrics())
}

// ProfileHierJobs is ProfileHier.
//
// Deprecated: jobs and decodeJobs are ignored; the four-argument form is
// kept only because the frozen bench/ module calls it.
func ProfileHierJobs(l *trace.Log, spec HierSpec, jobs, decodeJobs int) (*HierCurves, error) {
	return ProfileHier(l, spec)
}
