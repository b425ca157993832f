package schedule

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/hierarchy"
	"streamsched/internal/sdf"
)

// HierResult is the multi-level analogue of CurveResult: one run of a
// schedule, profiled into exact per-level miss counts for every (L1, L2)
// grid point of a hierarchy.HierSpec at once.
type HierResult struct {
	Run
	// Curves holds the exact non-inclusive (L1, L2) miss grid; Curves.Point
	// at (i, j) equals MeasureHierPoint's per-level misses with the
	// corresponding hierarchy.Config.
	Curves   *hierarchy.HierCurves
	TraceLen int64 // block accesses profiled (warmup + window)
}

// MissesPerItem returns the grid point's per-level misses normalised by
// window input items: L1 misses (L2 traffic) and L2 misses (memory
// traffic) per input item.
func (r *HierResult) MissesPerItem(i, j int) (l1, l2 float64) {
	if r.InputItems <= 0 {
		return 0, 0
	}
	m1, m2 := r.Curves.Point(i, j)
	return float64(m1) / float64(r.InputItems), float64(m2) / float64(r.InputItems)
}

// MeasureHier plans g with s, executes warm source firings, and profiles
// the block accesses of the next measured firings at spec.Block
// granularity as they happen, for the whole (L1, L2) grid at once: a
// hierarchy.HierProfiler is the machine's recorder — L1 curves via the
// organisation profiler, exact L2 curves from each L1 design point's
// filtered miss stream. Each grid point matches what MeasureHierPoint
// reports for the corresponding two-level configuration.
func MeasureHier(g *sdf.Graph, s Scheduler, env Env, spec hierarchy.HierSpec, warm, measured int64) (*HierResult, error) {
	prof, err := hierarchy.NewHierProfiler(spec)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	var curves *hierarchy.HierCurves
	m, run, err := Window{
		Span:     "measure_hier",
		Cache:    cachesim.Config{Block: spec.Block},
		Recorder: prof,
		Warm:     func(*exec.Machine) { prof.StartWarmup() },
		Mark:     func(*exec.Machine) { prof.ResetCounts() },
		Profile: func() (err error) {
			curves, err = prof.Curves(env.metrics())
			return err
		},
	}.Measure(g, s, env, warm, measured)
	if err != nil {
		return nil, err
	}
	return &HierResult{Run: run, Curves: curves, TraceLen: m.Cache().Stats().Accesses}, nil
}

// HierPointResult is one pointwise two-level measurement: a full schedule
// execution driven through the exact two-level simulator.
type HierPointResult struct {
	Run
	L1, L2 hierarchy.LevelStats
}

// MeasureHierPoint plans and runs g with s once, feeding every block-level
// access of the measured window through the exact two-level simulator for
// cfg — the pointwise oracle the hierarchy property tests hold
// MeasureHier's one-pass grid against. Sweeping a grid this way costs
// one full execution per (L1, L2) point; MeasureHier answers the same grid
// from one execution total.
func MeasureHierPoint(g *sdf.Graph, s Scheduler, env Env, cfg hierarchy.Config, warm, measured int64) (*HierPointResult, error) {
	sim, err := hierarchy.NewSim(cfg)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	// As in MeasureCurve, the machine simulates no cache of its own; the
	// hierarchy takes the recorder's place and sees exactly the stream a
	// trace would hold, at cfg.L1.Block granularity.
	_, run, err := Window{
		Span:     "measure_hier_point",
		Cache:    cachesim.Config{Block: cfg.L1.Block},
		Recorder: sim,
		Mark:     func(*exec.Machine) { sim.ResetStats() },
	}.Measure(g, s, env, warm, measured)
	if err != nil {
		return nil, err
	}
	return &HierPointResult{Run: run, L1: sim.L1Stats(), L2: sim.L2Stats()}, nil
}
