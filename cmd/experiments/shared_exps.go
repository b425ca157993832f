package main

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/hierarchy"
	"streamsched/internal/parallel"
	"streamsched/internal/partition"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
)

func init() {
	register("E21", "shared-L2 contention: private L1s, one L2, partitions vs P", runE21)
}

// runE21 puts the parallel extension in front of a shared L2: P logical
// processors with private L1s whose miss streams contend for one L2, in
// the interleaving the executor actually produced. Three schedules run
// across P in {1, 2, 4} — the homogeneous batching rule on the cache-aware
// partition, the classic fine-grained pipeline (one module per segment,
// no cache awareness), and the paper's cache-aware partition under the
// pipeline rule. Each run profiles a whole (L1, L2) grid as it goes
// (parallel.MeasureShared). TestMeasureSharedMatchesRunShared holds every
// point of these three schedules, P values, L1s and L2s against the exact
// shared-L2 simulator on a fresh run (parallel.RunShared), whose L2 is an
// independent implementation (a policy-ordered bank, not the
// reuse-distance profilers).
//
// Expected shape: the shared-L2 dimension moves the rankings a single
// cache level produces. At a tight shared L2 every schedule pays for the
// interleaved working sets (memory misses/item an order of magnitude
// above the large-L2 points) and the gap between schedules is set by L2
// traffic volume; at a large L2 the compulsory stream dominates and the
// schedules compress toward each other, so a ranking read off one level
// does not survive the hierarchy. The P axis moves through private-L1
// affinity: the executor prefers re-claiming a processor's previous
// component, so wider machines retain more aggregate private state and
// shift traffic off the contended L2.
func runE21(cfg runConfig) error {
	n, state := 24, int64(96)
	warm, meas := int64(256), int64(1024)
	if cfg.full {
		n, meas = 40, 4096
	}
	g, err := uniformPipeline("uniform-pipeline", n, state)
	if err != nil {
		return err
	}
	designM := int64(512)
	env := schedule.Env{M: designM, B: 16}
	auto, err := partition.Auto(g, designM)
	if err != nil {
		return err
	}
	pcfg := func(p int, rule parallel.Rule) parallel.Config {
		return parallel.Config{
			Procs: p,
			Env:   env,
			Cache: cachesim.Config{Capacity: 2 * designM, Block: env.B},
			Rule:  rule,
		}
	}
	type variant struct {
		name string
		p    *partition.Partition
		rule parallel.Rule
	}
	variants := []variant{
		{"homog+auto", auto, parallel.HomogeneousRule},
		{"pipe+fine", partition.Singleton(g), parallel.PipelineRule},
		{"pipe+aware", auto, parallel.PipelineRule},
	}
	procsList := []int{1, 2, 4}

	// 2 private-L1 points x 3 shared-L2 points; MeasureShared fills in
	// each run's processor count.
	spec := hierarchy.SharedSpec{
		Block: env.B,
		L1s: []hierarchy.Level{
			{Capacity: 128, Block: env.B, Ways: 1, Policy: cachesim.LRU},
			{Capacity: 256, Block: env.B, Ways: 0, Policy: cachesim.LRU},
		},
		L2s: []hierarchy.Level{
			{Capacity: 1024, Block: env.B, Ways: 0, Policy: cachesim.LRU},
			{Capacity: 8192, Block: 64, Ways: 8, Policy: cachesim.LRU},
			{Capacity: 2048, Block: 64, Ways: 4, Policy: cachesim.FIFO},
		},
	}

	// One traced execution per (variant, P) answers its whole grid.
	grids := make(map[string]*parallel.SharedMeasureResult)
	for _, v := range variants {
		for _, p := range procsList {
			mr, err := parallel.MeasureShared(v.name, g, v.p, pcfg(p, v.rule), spec, warm, meas)
			if err != nil {
				return fmt.Errorf("%s P=%d: %w", v.name, p, err)
			}
			grids[fmt.Sprintf("%s/P%d", v.name, p)] = mr
		}
	}

	cm := hierarchy.DefaultCostModel
	for i := range spec.L1s {
		for j := range spec.L2s {
			cols := []string{"schedule"}
			for _, p := range procsList {
				cols = append(cols, fmt.Sprintf("P=%d mem/item", p), fmt.Sprintf("P=%d AMAT", p))
			}
			tb := report.NewTable(
				fmt.Sprintf("E21: shared-L2 memory misses/item and AMAT, L1=%s per proc, L2=%s shared (pipeline n=%d, state=%d, M=%d)",
					spec.L1s[i], spec.L2s[j], n, state, designM),
				cols...)
			for _, v := range variants {
				row := []string{v.name}
				for _, p := range procsList {
					c := grids[fmt.Sprintf("%s/P%d", v.name, p)]
					_, m2 := c.MissesPerItem(i, j)
					row = append(row, report.F(m2), report.F(c.Curves.AMAT(i, j, cm)))
				}
				tb.Add(row...)
			}
			if err := tb.Render(cfg.out); err != nil {
				return err
			}
		}
	}

	for _, v := range variants {
		c := grids[fmt.Sprintf("%s/P%d", v.name, procsList[len(procsList)-1])]
		fmt.Fprintf(cfg.out, "%s (P=%d): trace %d accesses (%d in window) over %d items, makespan %d blocks\n",
			v.name, c.Procs, c.TraceLen, c.Curves.Accesses, c.Run.InputItems, c.Run.MakespanBlocks)
	}
	return nil
}
