package hierarchy

import (
	"fmt"

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
	return validateGrid(s.Block, s.L1s, s.L2s)
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
// which the aggregate Mattson profile does not carry — use SharedSim
// (parallel.RunShared) for those.
func (c *SharedCurves) AMAT(i, j int, cm CostModel) float64 {
	return cm.AMAT(c.Accesses, c.L1Total(i), c.L2Misses[i][j])
}

// ProfileShared evaluates the whole (L1, L2) grid from one recorded
// multiprocessor log in a single replay through a SharedProfiler. Every
// processor runs its own L1 organisation profilers over its own accesses,
// fed in the recorded global order; the interleaved miss stream each L1
// design point's P private replicas emit drives that point's shared-L2
// lanes (per-set Mattson stacks for LRU, one residency bit per FIFO point),
// so one parallel execution answers every (L1, L2) pairing. The
// replay honours the log's measured window, so the curves equal those of
// the same profiler fed live by the run (parallel.MeasureShared).
// TestProfileSharedMatchesSimulator holds every grid point against
// SharedSim, an independent implementation (policy-ordered Banks at both
// levels rather than reuse-distance profilers).
func ProfileShared(pl *trace.ProcLog, spec SharedSpec) (*SharedCurves, error) {
	p, err := NewSharedProfiler(spec)
	if err != nil {
		return nil, err
	}
	if pl.Procs() != spec.Procs {
		return nil, fmt.Errorf("hierarchy: trace has %d processors, spec wants %d", pl.Procs(), spec.Procs)
	}
	pl.ForEachRunWindowed(p.ResetCounts, p.RecordRun)
	return p.Curves(pl.Metrics())
}

// ProfileSharedJobs is ProfileShared.
//
// Deprecated: jobs and decodeJobs are ignored; the four-argument form is
// kept only because the frozen bench/ module calls it.
func ProfileSharedJobs(pl *trace.ProcLog, spec SharedSpec, jobs, decodeJobs int) (*SharedCurves, error) {
	return ProfileShared(pl, spec)
}
