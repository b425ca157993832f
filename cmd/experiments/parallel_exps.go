package main

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/parallel"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
	"streamsched/workloads"
)

func init() {
	register("E13", "Tab 5: parallel extension — P processors, private caches", runE13)
}

// runE13 runs the homogeneous parallel schedule (§3's asynchronous
// extension) on a wide beamformer. Expected shape: total misses stay near
// the uniprocessor count (the partition controls communication), while the
// makespan — the I/O-model critical path — shrinks with P until the
// graph's component parallelism is exhausted.
func runE13(cfg runConfig) error {
	m := int64(256)
	target := int64(2048)
	if cfg.full {
		target = 8192
	}
	g, err := workloads.Beamformer(8, 4, m/3)
	if err != nil {
		return err
	}
	pcfg := func(p int) parallel.Config {
		return parallel.Config{
			Procs: p,
			Env:   schedule.Env{M: m, B: 16},
			Cache: cachesim.Config{Capacity: 2 * m, Block: 16},
			Rule:  parallel.HomogeneousRule,
		}
	}
	base, err := parallel.Run(g, nil, pcfg(1), target)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		fmt.Sprintf("E13: parallel beamformer (channels=8, beams=4, M=%d, B=16, cache=2M/proc, %d source firings)", m, target),
		"P", "makespan-blocks", "speedup", "total-misses", "misses vs P=1", "max/min execs")
	for _, p := range []int{1, 2, 4, 8} {
		res, err := parallel.Run(g, nil, pcfg(p), target)
		if err != nil {
			return err
		}
		min, max := res.Executions[0], res.Executions[0]
		for _, e := range res.Executions {
			if e < min {
				min = e
			}
			if e > max {
				max = e
			}
		}
		balance := "-"
		if min > 0 {
			balance = report.Ratio(float64(max), float64(min))
		}
		tb.Add(report.I(int64(p)), report.I(res.MakespanBlocks),
			report.Ratio(float64(base.MakespanBlocks), float64(res.MakespanBlocks)),
			report.I(res.TotalMisses),
			report.Ratio(float64(res.TotalMisses), float64(base.TotalMisses)),
			balance)
	}
	return tb.Render(cfg.out)
}
