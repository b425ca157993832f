package schedule

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/hierarchy"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// HierResult is the multi-level analogue of CurveResult: one recorded run
// of a schedule, profiled into exact per-level miss counts for every
// (L1, L2) grid point of a hierarchy.HierSpec at once.
type HierResult struct {
	Scheduler   string
	Graph       string
	SourceFired int64 // source firings during the measured window
	InputItems  int64 // items produced by the source during the window
	SinkItems   int64
	// Curves holds the exact non-inclusive (L1, L2) miss grid; Curves.Point
	// at (i, j) equals MeasureHierPoint's per-level misses with the
	// corresponding hierarchy.Config.
	Curves      *hierarchy.HierCurves
	BufferWords int64 // total buffer capacity the plan allocated
	TraceLen    int64 // block accesses recorded (warmup + window)
	MeanLatency float64
	MaxLatency  int64
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

// MeasureHier plans g with s, executes warm source firings, records the
// block-access trace of the next measured firings at spec.Block
// granularity, and profiles the whole (L1, L2) grid from that single
// execution (hierarchy.ProfileHier): L1 curves via the organisation
// profiler, exact L2 curves from each L1 design point's filtered miss
// stream. Each grid point matches what MeasureHierPoint reports for the
// corresponding two-level configuration.
func MeasureHier(g *sdf.Graph, s Scheduler, env Env, spec hierarchy.HierSpec, warm, measured int64) (*HierResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	if measured <= 0 {
		return nil, fmt.Errorf("schedule: measured window must be positive, got %d", measured)
	}
	reg := env.metrics()
	sp := reg.StartSpan("measure_hier[" + s.Name() + "]")
	defer sp.End()
	stage := sp.Start("plan")
	plan, err := s.Prepare(g, env)
	stage.End()
	if err != nil {
		return nil, fmt.Errorf("schedule: prepare %s: %w", s.Name(), err)
	}
	log := trace.NewLog()
	log.SetMetrics(reg)
	log.SetSpillThreshold(curveSpillBytes)
	defer log.Close()
	m, err := exec.NewMachine(g, exec.Config{
		Cache:        cachesim.Config{Block: spec.Block},
		Caps:         plan.Caps,
		TrackLatency: g.Source() != g.Sink(),
		Recorder:     log,
	})
	if err != nil {
		return nil, fmt.Errorf("schedule: machine for %s: %w", s.Name(), err)
	}
	stage = sp.Start("record")
	if warm > 0 {
		if err := plan.Runner.Run(m, warm); err != nil {
			return nil, fmt.Errorf("schedule: warmup %s: %w", s.Name(), err)
		}
	}
	log.MarkWindow()
	m.ResetLatency()
	fired0, items0 := m.SourceFirings(), m.InputItems()
	sink0 := m.SinkItems()
	if err := plan.Runner.Run(m, fired0+measured); err != nil {
		return nil, fmt.Errorf("schedule: run %s: %w", s.Name(), err)
	}
	if err := m.CheckConservation(); err != nil {
		return nil, fmt.Errorf("schedule: %s broke conservation: %w", s.Name(), err)
	}
	stage.End()
	stage = sp.Start("profile")
	curves, err := hierarchy.ProfileHier(log, spec)
	stage.End()
	if err != nil {
		return nil, fmt.Errorf("schedule: profile %s: %w", s.Name(), err)
	}
	res := &HierResult{
		Scheduler:   s.Name(),
		Graph:       g.Name(),
		SourceFired: m.SourceFirings() - fired0,
		InputItems:  m.InputItems() - items0,
		SinkItems:   m.SinkItems() - sink0,
		Curves:      curves,
		TraceLen:    log.Len(),
	}
	res.MeanLatency, res.MaxLatency = m.Latency()
	for _, c := range plan.Caps {
		res.BufferWords += c
	}
	return res, nil
}

// SweepHier records and profiles one hierarchy grid per scheduler on a
// bounded goroutine pool (workers <= 0 means GOMAXPROCS). Outcomes are
// returned in scheduler order; failed schedulers carry their error and a
// nil value.
func SweepHier(g *sdf.Graph, scheds []Scheduler, env Env, spec hierarchy.HierSpec, warm, measured int64, workers int) []trace.Outcome[*HierResult] {
	jobs := make([]trace.Job[*HierResult], len(scheds))
	for i, s := range scheds {
		jobs[i] = trace.Job[*HierResult]{
			Name: s.Name(),
			Run: func() (*HierResult, error) {
				return MeasureHier(g, s, env, spec, warm, measured)
			},
		}
	}
	return trace.Sweep(jobs, workers)
}

// HierPointResult is one pointwise two-level measurement: a full schedule
// execution driven through the exact two-level simulator.
type HierPointResult struct {
	Scheduler   string
	Graph       string
	SourceFired int64
	InputItems  int64
	SinkItems   int64
	L1, L2      hierarchy.LevelStats
}

// MeasureHierPoint plans and runs g with s once, feeding every block-level
// access of the measured window through the exact two-level simulator for
// cfg — the pointwise oracle MeasureHier's one-pass grid is
// cross-validated against (experiment E20). Sweeping a grid this way costs
// one full execution per (L1, L2) point; MeasureHier answers the same grid
// from one execution total.
func MeasureHierPoint(g *sdf.Graph, s Scheduler, env Env, cfg hierarchy.Config, warm, measured int64) (*HierPointResult, error) {
	if measured <= 0 {
		return nil, fmt.Errorf("schedule: measured window must be positive, got %d", measured)
	}
	sim, err := hierarchy.NewSim(cfg)
	if err != nil {
		return nil, fmt.Errorf("schedule: %w", err)
	}
	plan, err := s.Prepare(g, env)
	if err != nil {
		return nil, fmt.Errorf("schedule: prepare %s: %w", s.Name(), err)
	}
	// As in MeasureCurve, the machine simulates no cache of its own; the
	// hierarchy takes the recorder's place and sees exactly the stream a
	// trace would hold, at cfg.L1.Block granularity.
	m, err := exec.NewMachine(g, exec.Config{
		Cache:        cachesim.Config{Block: cfg.L1.Block},
		Caps:         plan.Caps,
		TrackLatency: g.Source() != g.Sink(),
		Recorder:     sim,
	})
	if err != nil {
		return nil, fmt.Errorf("schedule: machine for %s: %w", s.Name(), err)
	}
	if warm > 0 {
		if err := plan.Runner.Run(m, warm); err != nil {
			return nil, fmt.Errorf("schedule: warmup %s: %w", s.Name(), err)
		}
	}
	sim.ResetStats()
	fired0, items0 := m.SourceFirings(), m.InputItems()
	sink0 := m.SinkItems()
	if err := plan.Runner.Run(m, fired0+measured); err != nil {
		return nil, fmt.Errorf("schedule: run %s: %w", s.Name(), err)
	}
	if err := m.CheckConservation(); err != nil {
		return nil, fmt.Errorf("schedule: %s broke conservation: %w", s.Name(), err)
	}
	return &HierPointResult{
		Scheduler:   s.Name(),
		Graph:       g.Name(),
		SourceFired: m.SourceFirings() - fired0,
		InputItems:  m.InputItems() - items0,
		SinkItems:   m.SinkItems() - sink0,
		L1:          sim.L1Stats(),
		L2:          sim.L2Stats(),
	}, nil
}
