package main

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/hierarchy"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
)

func init() {
	register("E20", "multi-level hierarchies: one-pass (L1, L2) grids, memory misses and AMAT per scheduler", runE20)
}

// runE20 evaluates every scheduler against a two-level cache hierarchy
// grid — per-scheduler L1 misses (L2 traffic), memory misses, and an
// AMAT-style composed cost — from one recorded trace per scheduler
// (schedule.MeasureHier). TestPropHierCurvesMatchSimulatorOnRandomPipelines
// holds every point of this grid's L1s and L2s against a fresh execution
// driven through the exact two-level simulator (schedule.MeasureHierPoint).
// The hierarchy dimension is the point: an L2 only sees the L1's miss
// stream, so schedulers whose misses the L2 absorbs converge, and rankings
// taken at a single level can flip.
func runE20(cfg runConfig) error {
	n, state := 30, int64(128)
	warm, meas := int64(512), int64(2048)
	if cfg.full {
		n, meas = 50, 8192
	}
	g, err := uniformPipeline("uniform-pipeline", n, state)
	if err != nil {
		return err
	}
	designM := int64(512)
	env := schedule.Env{M: designM, B: 16}
	scheds := []schedule.Scheduler{schedule.FlatTopo{}, schedule.Scaled{S: 4}, schedule.Partitioned(g, nil)}

	// 4 L1 points (direct-mapped and fully-associative at two capacities)
	// x 3 L2 points (LRU and FIFO, one with a coarser block).
	spec := hierarchy.HierSpec{
		Block: env.B,
		L1s: []hierarchy.Level{
			{Capacity: 256, Block: env.B, Ways: 1, Policy: cachesim.LRU},
			{Capacity: 256, Block: env.B, Ways: 0, Policy: cachesim.LRU},
			{Capacity: 512, Block: env.B, Ways: 1, Policy: cachesim.LRU},
			{Capacity: 512, Block: env.B, Ways: 0, Policy: cachesim.LRU},
		},
		L2s: []hierarchy.Level{
			{Capacity: 2048, Block: env.B, Ways: 0, Policy: cachesim.LRU},
			{Capacity: 4096, Block: 64, Ways: 8, Policy: cachesim.LRU},
			{Capacity: 4096, Block: 64, Ways: 4, Policy: cachesim.FIFO},
		},
	}

	// One recorded execution per scheduler answers the whole grid.
	results := make([]*schedule.HierResult, len(scheds))
	for i, s := range scheds {
		r, err := schedule.MeasureHier(g, s, env, spec, warm, meas)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name(), err)
		}
		results[i] = r
	}

	cols := []string{"L1", "L2"}
	for _, r := range results {
		cols = append(cols, r.Scheduler)
	}
	mem := report.NewTable(
		fmt.Sprintf("E20: memory misses/item through an (L1, L2) hierarchy (pipeline n=%d, state=%d, designed at M=%d, B=16, one trace per scheduler)",
			n, state, designM),
		cols...)
	amat := report.NewTable("E20: AMAT (cycles/access, 1/10/100 latency ladder)", cols...)
	cm := hierarchy.DefaultCostModel
	for i := range spec.L1s {
		for j := range spec.L2s {
			memRow := []string{spec.L1s[i].String(), spec.L2s[j].String()}
			amatRow := []string{spec.L1s[i].String(), spec.L2s[j].String()}
			for _, r := range results {
				_, m2 := r.MissesPerItem(i, j)
				memRow = append(memRow, report.F(m2))
				amatRow = append(amatRow, report.F(r.Curves.AMAT(i, j, cm)))
			}
			mem.Add(memRow...)
			amat.Add(amatRow...)
		}
	}
	if err := mem.Render(cfg.out); err != nil {
		return err
	}
	if err := amat.Render(cfg.out); err != nil {
		return err
	}

	for _, r := range results {
		fmt.Fprintf(cfg.out, "%s: trace %d accesses (%d in window) over %d items\n",
			r.Scheduler, r.TraceLen, r.Curves.Accesses, r.InputItems)
	}
	return nil
}
