package parallel

import (
	"fmt"

	"streamsched/internal/hierarchy"
	"streamsched/internal/obs"
	"streamsched/internal/partition"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// SharedResult is one pointwise shared-hierarchy measurement: a parallel
// run whose interleaved access stream drove the exact shared-L2 simulator
// (P private L1s, one contended L2). All counters cover the measured
// window.
type SharedResult struct {
	Run    *Result
	Config hierarchy.SharedConfig
	// PerProcL1[p] is processor p's private-L1 traffic; PerProcL2[p] is
	// the share of the L2's traffic p's L1 misses triggered.
	PerProcL1 []hierarchy.LevelStats
	PerProcL2 []hierarchy.LevelStats
	// L2 is the shared L2's aggregate traffic; its misses are the run's
	// memory transfers.
	L2 hierarchy.LevelStats
	// CostModel is the latency ladder the cost figures below used.
	CostModel hierarchy.CostModel
	// PerProcCost[p] is p's accumulated memory time; Makespan is the
	// maximum (the run's critical path in the hierarchy cost model) and
	// AMAT the aggregate average cost per access.
	PerProcCost []float64
	Makespan    float64
	AMAT        float64
	TraceLen    int64 // accesses simulated (warmup + window)
}

// RunShared executes g on cfg.Procs simulated processors (warm, then a
// measured window) with the exact shared-L2 simulator for hcfg as the
// window's sink. The claiming rule and load balancing run on the
// private design caches (cfg.Cache) as always; the hierarchy is evaluated
// on the emitted stream, so the interleaving — and therefore the
// contention the shared L2 sees — is exactly what the executor produced.
// hcfg's L1 block must equal cfg.Cache.Block, the granularity accesses are
// emitted at, and hcfg.Procs must equal cfg.Procs.
func RunShared(g *sdf.Graph, p *partition.Partition, cfg Config, hcfg hierarchy.SharedConfig, cm hierarchy.CostModel, warm, measured int64) (*SharedResult, error) {
	sim, err := hierarchy.NewSharedSim(hcfg)
	if err != nil {
		return nil, err
	}
	if hcfg.Procs != cfg.Procs {
		return nil, fmt.Errorf("parallel: hierarchy wants %d processors, run has %d", hcfg.Procs, cfg.Procs)
	}
	if hcfg.L1.Block != cfg.Cache.Block {
		return nil, fmt.Errorf("parallel: L1 block %d must equal the trace granularity %d", hcfg.L1.Block, cfg.Cache.Block)
	}
	res, n, err := Window{Span: "run_shared", Sink: sim.RecordRun, Mark: sim.ResetStats}.Measure(g, p, cfg, warm, measured)
	if err != nil {
		return nil, err
	}
	sim.PublishMetrics(obs.Or(cfg.Env.Metrics))
	out := &SharedResult{
		Run:         res,
		Config:      hcfg,
		PerProcL1:   sim.PerProcL1(),
		PerProcL2:   make([]hierarchy.LevelStats, cfg.Procs),
		L2:          sim.L2Stats(),
		CostModel:   cm,
		PerProcCost: make([]float64, cfg.Procs),
		Makespan:    sim.Makespan(cm),
		AMAT:        sim.AMAT(cm),
		TraceLen:    n,
	}
	for proc := 0; proc < cfg.Procs; proc++ {
		out.PerProcL2[proc] = sim.ProcL2Stats(proc)
		out.PerProcCost[proc] = sim.ProcCost(proc, cm)
	}
	return out, nil
}

// SharedMeasureResult is one parallel run profiled into exact
// shared-hierarchy miss counts for every (L1, L2) grid point at once.
type SharedMeasureResult struct {
	Name  string
	Graph string
	Procs int
	// Curves holds the exact shared-L2 grid; Curves.Point at (i, j)
	// equals RunShared with the corresponding SharedConfig.
	Curves *hierarchy.SharedCurves
	// Run summarises the measured window of the execution in the
	// executor's own I/O cost model.
	Run      *Result
	TraceLen int64 // accesses profiled (warmup + window)
}

// MissesPerItem returns grid point (i, j)'s aggregate per-level misses
// normalised by window input items.
func (r *SharedMeasureResult) MissesPerItem(i, j int) (l1, l2 float64) {
	if r.Run == nil || r.Run.InputItems <= 0 {
		return 0, 0
	}
	m1, m2 := r.Curves.Point(i, j)
	return float64(m1) / float64(r.Run.InputItems), float64(m2) / float64(r.Run.InputItems)
}

// MeasureShared executes one parallel run of g under cfg with a
// hierarchy.SharedProfiler as its window's sink and profiles the whole
// shared (L1, L2) grid as it goes: every processor gets an exact private
// replica of each L1 design point, and the interleaved miss streams drive
// per-family shared-L2 profilers. A spec Procs of 0 is
// filled from cfg.Procs; otherwise they must agree, and spec.Block must
// equal cfg.Cache.Block. Each grid point matches what RunShared reports
// for the corresponding SharedConfig (experiment E21 cross-validates every
// point).
func MeasureShared(name string, g *sdf.Graph, p *partition.Partition, cfg Config, spec hierarchy.SharedSpec, warm, measured int64) (*SharedMeasureResult, error) {
	if spec.Procs == 0 {
		spec.Procs = cfg.Procs
	}
	if spec.Procs != cfg.Procs {
		return nil, fmt.Errorf("parallel: spec wants %d processors, run has %d", spec.Procs, cfg.Procs)
	}
	if spec.Block != cfg.Cache.Block {
		return nil, fmt.Errorf("parallel: spec block %d must equal the trace granularity %d", spec.Block, cfg.Cache.Block)
	}
	prof, err := hierarchy.NewSharedProfiler(spec)
	if err != nil {
		return nil, err
	}
	var curves *hierarchy.SharedCurves
	res, n, err := Window{
		Span: "measure_shared",
		Sink: prof.RecordRun,
		Mark: prof.ResetCounts,
		Profile: func() (err error) {
			curves, err = prof.Curves(obs.Or(cfg.Env.Metrics))
			return err
		},
	}.Measure(g, p, cfg, warm, measured)
	if err != nil {
		return nil, fmt.Errorf("parallel: %s: %w", name, err)
	}
	return &SharedMeasureResult{
		Name:     name,
		Graph:    g.Name(),
		Procs:    cfg.Procs,
		Curves:   curves,
		Run:      res,
		TraceLen: n,
	}, nil
}

// SharedVariant names one sweep configuration: a partition (nil meaning
// partition.Auto at Cfg.Env.M) and a run configuration. Variants may
// differ in processor count, claiming rule, and partition — the dimensions
// shared-L2 contention experiments compare.
type SharedVariant struct {
	Name string
	P    *partition.Partition
	Cfg  Config
}

// SweepShared profiles one shared hierarchy grid per variant
// on a bounded goroutine pool (workers <= 0 means GOMAXPROCS). spec.Procs
// is filled from each variant's processor count, so one spec serves
// variants of different widths. Outcomes are returned in variant order;
// failed variants carry their error and a nil value.
func SweepShared(g *sdf.Graph, variants []SharedVariant, spec hierarchy.SharedSpec, warm, measured int64, workers int) []trace.Outcome[*SharedMeasureResult] {
	jobs := make([]trace.Job[*SharedMeasureResult], len(variants))
	for i, v := range variants {
		jobs[i] = trace.Job[*SharedMeasureResult]{
			Name: v.Name,
			Run: func() (*SharedMeasureResult, error) {
				s := spec
				s.Procs = 0
				return MeasureShared(v.Name, g, v.P, v.Cfg, s, warm, measured)
			},
		}
	}
	return trace.Sweep(jobs, workers)
}
