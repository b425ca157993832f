package main

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
	"streamsched/internal/trace"
)

func init() {
	register("E10", "Fig 7: Sermulins scaling-factor cliff", runE10)
	register("E12", "Fig 8: replacement policy / associativity robustness", runE12)
}

// runE10 sweeps the execution-scaling factor s. In the DAM model scaled
// misses/item fall as state loads amortize and then saturate at a floor of
// roughly 2·|edges|/B per item — once the scaled buffers exceed the cache,
// every channel's traffic streams through memory. Partitioning beats the
// floor because internal edges never leave the cache: its per-item cost is
// bandwidth(P)/B, i.e. only the cut edges pay. The partitioned reference
// uses a quarter-size partition bound on the same cache (Theorem 5's O(1)
// augmentation, read in reverse).
func runE10(cfg runConfig) error {
	e10, err := buildE10(cfg.full)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		fmt.Sprintf("E10: scaling floor (pipeline n=%d, state=%d, M=%d, B=16, cache=M; partitioned reference: %s misses/item)",
			e10.n, e10.state, e10.m, report.F(e10.partitioned)),
		"s", "buffer-words", "scaled misses/item")
	for _, r := range e10.rows {
		tb.Add(report.I(r.s), report.I(r.bufferWords), report.F(r.scaled))
	}
	return tb.Render(cfg.out)
}

// e10Table is the table E10 prints: per scaling factor, the scaled
// schedule's buffer words and misses per item, and the partitioned
// reference's misses per item.
type e10Table struct {
	n           int
	state, m    int64
	edges       int
	partitioned float64
	rows        []e10Row
}

type e10Row struct {
	s, bufferWords int64
	scaled         float64
}

// buildE10 measures E10's table.
func buildE10(full bool) (*e10Table, error) {
	e10 := &e10Table{n: 34, state: 128, m: 512}
	warm, meas := int64(1024), int64(4096)
	if full {
		meas = 16384
	}
	g, err := uniformPipeline("uniform-pipeline", e10.n, e10.state)
	if err != nil {
		return nil, err
	}
	e10.edges = g.NumEdges()
	env := schedule.Env{M: e10.m, B: 16}
	// Partitioned schedule designed for M/4, run on the same cache of M
	// words the scaled baselines get.
	partEnv := schedule.Env{M: e10.m / 4, B: 16}
	part, err := measure(g, schedule.PartitionedPipeline{}, partEnv, e10.m, warm, meas)
	if err != nil {
		return nil, err
	}
	e10.partitioned = part.MissesPerItem
	for _, s := range []int64{1, 2, 4, 8, 16, 32, 64, 128, 256} {
		res, err := measure(g, schedule.Scaled{S: s}, env, e10.m, warm, meas)
		if err != nil {
			return nil, err
		}
		e10.rows = append(e10.rows, e10Row{s, res.BufferWords, res.MissesPerItem})
	}
	return e10, nil
}

// runE12 re-runs the E1-style comparison under different cache
// organisations — set-associative placement (direct-mapped through fully
// associative) and FIFO replacement — from ONE recorded trace per
// scheduler: per-set Mattson stacks answer every set-associative LRU
// point and multiplexed per-set replicas answer every FIFO point, where
// the pointwise version paid one full simulation per (scheduler,
// organisation, M) cell. That every cell equals the cache simulator's
// count is TestPropOrgCurvesMatchSimulatorOnRandomPipelines' job, which
// holds this grid, graph and scheduler list against it.
// Expected shape: absolute numbers move slightly but the scheduler
// ordering (partitioned < scaled < flat) is preserved — the paper's
// conclusions do not depend on the idealised fully-associative LRU.
func runE12(cfg runConfig) error {
	m := int64(512)
	n, state := 34, int64(128)
	warm, meas := int64(512), int64(2048)
	if cfg.full {
		meas = 8192
	}
	g, err := uniformPipeline("uniform-pipeline", n, state)
	if err != nil {
		return err
	}
	env := schedule.Env{M: m, B: 16}
	scheds := []schedule.Scheduler{
		schedule.FlatTopo{}, schedule.Scaled{S: 4}, schedule.PartitionedPipeline{},
	}
	caps := []int64{128, 256, 512, 1024, 2048, 4096} // the E1 M axis: 8..256 lines at B=16
	waysList := []int64{0, 8, 4, 1}                  // fully-assoc, 8-way, 4-way, direct
	policies := []cachesim.Policy{cachesim.LRU, cachesim.FIFO}

	// Group the (capacity, ways) grid by set count: one OrgSpec per
	// distinct shard count, each carrying the FIFO way counts its
	// geometries need.
	specs, specIdx, err := trace.GridSpecs(caps, env.B, waysList, true)
	if err != nil {
		return err
	}

	// One recorded trace per scheduler answers the whole grid.
	results, err := schedule.Sweep(scheds, func(s schedule.Scheduler) (*schedule.CurveResult, error) {
		return schedule.MeasureCurveOrgs(g, s, env, env.B, warm, meas, specs)
	})
	if err != nil {
		return err
	}
	missesPerItem := func(r *schedule.CurveResult, c, w int64, pol cachesim.Policy) float64 {
		sets, _ := trace.SetsFor(c, env.B, w)
		misses, _ := r.Orgs[specIdx[sets]].Misses(trace.EffectiveWays(c, env.B, w), pol == cachesim.FIFO)
		return float64(misses) / float64(r.InputItems)
	}

	orgName := func(w int64, pol cachesim.Policy) string {
		switch w {
		case 0:
			return fmt.Sprintf("%s full-assoc", pol)
		case 1:
			return fmt.Sprintf("%s direct", pol)
		default:
			return fmt.Sprintf("%s %d-way", pol, w)
		}
	}
	tb := report.NewTable(
		fmt.Sprintf("E12: cache organisation ablation from one trace/scheduler (pipeline n=%d, state=%d, designed at M=%d, B=16)", n, state, m),
		"cache", "M", "flat-topo", "scaled(s=4)", "partitioned", "ordering preserved")
	for _, w := range waysList {
		for _, pol := range policies {
			for _, c := range caps {
				flat := missesPerItem(results[0], c, w, pol)
				scaled := missesPerItem(results[1], c, w, pol)
				part := missesPerItem(results[2], c, w, pol)
				ok := "yes"
				if !(part < scaled && scaled < flat) {
					ok = "no"
				}
				tb.Add(orgName(w, pol), report.I(c), report.F(flat), report.F(scaled),
					report.F(part), ok)
			}
		}
	}
	return tb.Render(cfg.out)
}
