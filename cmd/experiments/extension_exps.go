package main

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/workloads"
)

func init() {
	register("E15", "LRU vs offline-optimal (Belady) replacement", runE15)
	register("E16", "miss breakdown: state vs cross-buffer vs internal (the paper's two miss types)", runE16)
	register("E17", "batch-size T sweep: buffer memory vs misses (the §3 open problem)", runE17)
	register("E18", "latency vs misses: the price of batching", runE18)
}

// runE15 replays each scheduler's block trace under Belady's MIN policy at
// the same capacity. Expected shape: LRU within ~2x of OPT everywhere (the
// Sleator–Tarjan slack the model substitution relies on), and the
// scheduler ordering unchanged under OPT.
func runE15(cfg runConfig) error {
	m := int64(512)
	n, state := 34, int64(128)
	warm, meas := int64(256), int64(1024)
	if cfg.full {
		meas = 4096
	}
	g, err := uniformPipeline("uniform-pipeline", n, state)
	if err != nil {
		return err
	}
	env := schedule.Env{M: m, B: 16}
	cacheCfg := cachesim.Config{Capacity: 2 * m, Block: 16}
	tb := report.NewTable(
		fmt.Sprintf("E15: LRU vs OPT misses/item (pipeline n=%d, state=%d, M=%d, cache=2M)", n, state, m),
		"scheduler", "LRU", "OPT", "LRU/OPT")
	scheds := []schedule.Scheduler{
		schedule.FlatTopo{}, schedule.Scaled{S: 4}, schedule.KohliGreedy{},
		schedule.PartitionedPipeline{},
	}
	for _, s := range scheds {
		mach, run, err := schedule.Window{
			Span:  "e15",
			Cache: cacheCfg,
			Mark: func(m *exec.Machine) {
				m.Cache().ResetStats()
				m.Cache().StartTrace()
			},
		}.Measure(g, s, env, warm, meas)
		if err != nil {
			return err
		}
		items := float64(run.InputItems)
		lru := float64(mach.Cache().Stats().Misses) / items
		trace := mach.Cache().StopTrace()
		opt := float64(cachesim.SimulateOPT(trace, cacheCfg.Capacity/cacheCfg.Block).Misses) / items
		tb.Add(s.Name(), report.F(lru), report.F(opt), report.Ratio(lru, opt))
	}
	return tb.Render(cfg.out)
}

// runE16 attributes misses to the paper's two controllable sources (§1):
// module-state reloads and channel items written out to memory. Expected
// shape: baselines are dominated by state misses; the partitioned schedule
// eliminates state reloads and pays (only) for cross-edge channel traffic.
func runE16(cfg runConfig) error {
	m := int64(512)
	warm, meas := int64(512), int64(2048)
	if cfg.full {
		meas = 8192
	}
	g, err := uniformPipeline("uniform-pipeline", 34, 128)
	if err != nil {
		return err
	}
	fm, err := workloads.FMRadio(8, m/4)
	if err != nil {
		return err
	}
	env := schedule.Env{M: m, B: 16}
	cacheCfg := cachesim.Config{Capacity: 2 * m, Block: 16}
	tb := report.NewTable(
		fmt.Sprintf("E16: misses/item by memory-object class (M=%d, B=16, cache=2M)", m),
		"workload", "scheduler", "state", "cross-buffer", "internal-buffer", "total")
	cases := []struct {
		g      *sdf.Graph
		scheds []schedule.Scheduler
	}{
		{g, []schedule.Scheduler{schedule.FlatTopo{}, schedule.Scaled{S: 4}, schedule.PartitionedPipeline{}}},
		{fm, []schedule.Scheduler{schedule.FlatTopo{}, schedule.PartitionedHomogeneous{}}},
	}
	for _, c := range cases {
		for _, s := range c.scheds {
			res, err := schedule.Measure(c.g, s, env, cacheCfg, warm, meas)
			if err != nil {
				return err
			}
			items := float64(res.InputItems)
			tb.Add(c.g.Name(), s.Name(),
				report.F(float64(res.ClassMisses.Get(cachesim.ClassState))/items),
				report.F(float64(res.ClassMisses.Get(cachesim.ClassCrossBuffer))/items),
				report.F(float64(res.ClassMisses.Get(cachesim.ClassInternalBuffer))/items),
				report.F(res.MissesPerItem))
		}
	}
	return tb.Render(cfg.out)
}

// runE18 measures item latency (in source items) against misses/item for
// every scheduler. The intro names throughput and latency as the classic
// streaming objectives; this experiment prices the paper's approach in the
// other currency. Expected shape: the flat schedule has ~zero steady-state
// latency but maximal misses; partitioned schedules hold items in Θ(M)
// cross buffers, so latency ≈ (#cuts)·Θ(M) while misses collapse.
func runE18(cfg runConfig) error {
	m := int64(256)
	warm, meas := int64(2048), int64(4096)
	if cfg.full {
		meas = 16384
	}
	g, err := uniformPipeline("uniform-pipeline", 18, 128)
	if err != nil {
		return err
	}
	env := schedule.Env{M: m, B: 16}
	cacheCfg := cachesim.Config{Capacity: 2 * m, Block: 16}
	tb := report.NewTable(
		fmt.Sprintf("E18: latency vs misses (pipeline n=18, state=128, M=%d, B=16, cache=2M)", m),
		"scheduler", "misses/item", "mean latency (items)", "max latency")
	scheds := []schedule.Scheduler{
		schedule.FlatTopo{}, schedule.Scaled{S: 4}, schedule.DemandDriven{},
		schedule.KohliGreedy{}, schedule.PartitionedPipeline{},
	}
	for _, s := range scheds {
		res, err := schedule.Measure(g, s, env, cacheCfg, warm, meas)
		if err != nil {
			return err
		}
		tb.Add(s.Name(), report.F(res.MissesPerItem),
			report.F1(res.MeanLatency), report.I(res.MaxLatency))
	}
	if err := tb.Render(cfg.out); err != nil {
		return err
	}
	// Latency scales with M for the partitioned schedule.
	tb2 := report.NewTable("E18b: partitioned latency vs M",
		"M", "misses/item", "mean latency", "max latency")
	for _, mm := range []int64{128, 256, 512} {
		envM := schedule.Env{M: mm, B: 16}
		res, err := schedule.Measure(g, schedule.PartitionedPipeline{}, envM,
			cachesim.Config{Capacity: 2 * mm, Block: 16}, warm, meas)
		if err != nil {
			return err
		}
		tb2.Add(report.I(mm), report.F(res.MissesPerItem),
			report.F1(res.MeanLatency), report.I(res.MaxLatency))
	}
	return tb2.Render(cfg.out)
}

// runE17 sweeps the batch scheduler's T target on the MP3 decoder: buffer
// memory scales with T while misses/item scale as ~1/min(T, M) until the
// T=M knee. Expected shape: a clean memory/miss tradeoff frontier with
// diminishing returns past T = M — quantifying the §3 open problem.
func runE17(cfg runConfig) error {
	m := int64(512)
	warm, meas := int64(512), int64(2048)
	if cfg.full {
		meas = 8192
	}
	g, err := workloads.MP3Decoder(m / 4)
	if err != nil {
		return err
	}
	env := schedule.Env{M: m, B: 16}
	tb := report.NewTable(
		fmt.Sprintf("E17: batch size vs buffer memory vs misses (mp3, M=%d, B=16, cache=2M)", m),
		"T-target", "buffer-words", "peak cross util", "misses/item")
	for _, tTarget := range []int64{m / 8, m / 4, m / 2, m, 2 * m, 4 * m} {
		s := schedule.PartitionedBatch{MinT: tTarget}
		res, err := measure(g, s, env, 2*m, warm, meas)
		if err != nil {
			return fmt.Errorf("T=%d: %w", tTarget, err)
		}
		uses, err := schedule.BufferUtilization(g, s, env, 2*tTarget)
		if err != nil {
			return err
		}
		var peak float64
		for _, u := range uses {
			if u.Cross && u.Utilization() > peak {
				peak = u.Utilization()
			}
		}
		tb.Add(report.I(tTarget), report.I(res.BufferWords), report.F(peak),
			report.F(res.MissesPerItem))
	}
	return tb.Render(cfg.out)
}
