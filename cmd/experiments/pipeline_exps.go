package main

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/lowerbound"
	"streamsched/internal/partition"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
	"streamsched/internal/trace"
)

func init() {
	register("E1", "Fig 1: pipeline misses/item vs cache size M (5 schedulers)", runE1)
	register("E2", "Fig 2: pipeline misses/item vs pipeline length", runE2)
	register("E4", "Fig 3: lower/upper bound sandwich (Theorems 3 & 5)", runE4)
	register("E5", "Fig 4: cache augmentation sweep", runE5)
	register("E8", "Fig 6: block size sweep (1/B scaling)", runE8)
}

// runE1 sweeps M for a fixed oversized pipeline. Expected shape: baselines
// pay ~totalState/B per item until the whole graph fits; the partitioned
// schedule stays near bandwidth(P)/B throughout. The sweep replans at
// every M (the schedule is designed for the cache it runs against), so it
// cannot collapse into one trace the way E12/E19 do; instead the whole
// (M, scheduler) grid runs as independent jobs on the goroutine-pooled
// trace.Sweep path.
func runE1(cfg runConfig) error {
	n, state := 34, int64(128)
	warm, meas := int64(512), int64(2048)
	if cfg.full {
		n, meas = 66, 8192
	}
	g, err := uniformPipeline("uniform-pipeline", n, state)
	if err != nil {
		return err
	}
	ms := []int64{128, 256, 512, 1024, 2048, 4096}
	scheds := append(schedule.Baselines(), schedule.PartitionedPipeline{})
	jobs := make([]trace.Job[*schedule.Result], 0, len(ms)*len(scheds))
	for _, m := range ms {
		for _, s := range scheds {
			env := schedule.Env{M: m, B: 16}
			jobs = append(jobs, trace.Job[*schedule.Result]{
				Name: fmt.Sprintf("M=%d %s", m, s.Name()),
				Run: func() (*schedule.Result, error) {
					return measure(g, s, env, 2*m, warm, meas)
				},
			})
		}
	}
	outcomes := trace.Sweep(jobs, 0)
	tb := report.NewTable(
		fmt.Sprintf("E1: misses/item vs M (pipeline n=%d, state=%d/module, total=%d, B=16, cache=2M)",
			n, state, g.TotalState()),
		"M", "flat-topo", "scaled(s=4)", "demand-driven", "kohli-greedy", "partitioned")
	for mi, m := range ms {
		row := []string{report.I(m)}
		for si := range scheds {
			o := outcomes[mi*len(scheds)+si]
			if o.Err != nil {
				return fmt.Errorf("%s: %w", o.Name, o.Err)
			}
			row = append(row, report.F(o.Value.MissesPerItem))
		}
		tb.Add(row...)
	}
	return tb.Render(cfg.out)
}

// runE2 sweeps pipeline length at fixed M. Expected shape: baseline
// misses/item grow linearly with length (state reloads); partitioned
// misses/item grow only with the number of cuts per item, i.e. stay near
// (#segments)/B after normalizing.
func runE2(cfg runConfig) error {
	e2, err := buildE2(cfg.full)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		fmt.Sprintf("E2: misses/item vs pipeline length (M=%d, B=16, state=%d/module, cache=2M)", e2.m, e2.state),
		"modules", "total-state", "flat-topo", "partitioned", "flat/partitioned")
	for _, r := range e2.rows {
		tb.Add(report.I(int64(r.modules)), report.I(r.totalState),
			report.F(r.flat), report.F(r.partitioned),
			report.Ratio(r.flat, r.partitioned))
	}
	return tb.Render(cfg.out)
}

// e2Table is the table E2 prints: per pipeline length, the flat-topo and
// partitioned misses per item.
type e2Table struct {
	m, state int64
	rows     []e2Row
}

type e2Row struct {
	modules           int
	totalState        int64
	flat, partitioned float64
}

// buildE2 measures E2's table.
func buildE2(full bool) (*e2Table, error) {
	e2 := &e2Table{m: 256, state: 128}
	warm, meas := int64(512), int64(2048)
	lengths := []int{10, 18, 34, 66}
	if full {
		lengths = append(lengths, 130, 258)
	}
	env := schedule.Env{M: e2.m, B: 16}
	for _, n := range lengths {
		g, err := uniformPipeline("uniform-pipeline", n, e2.state)
		if err != nil {
			return nil, err
		}
		flat, err := measure(g, schedule.FlatTopo{}, env, 2*e2.m, warm, meas)
		if err != nil {
			return nil, err
		}
		part, err := measure(g, schedule.PartitionedPipeline{}, env, 2*e2.m, warm, meas)
		if err != nil {
			return nil, err
		}
		e2.rows = append(e2.rows, e2Row{n, g.TotalState(), flat.MissesPerItem, part.MissesPerItem})
	}
	return e2, nil
}

// runE4 reports the Theorem 3 / Theorem 5 sandwich: every scheduler's
// measured misses per source firing is at least a fraction of the lower
// bound, and the partitioned schedule (with O(1) augmentation) is within a
// constant factor of it.
func runE4(cfg runConfig) error {
	warm, meas := int64(1024), int64(4096)
	if cfg.full {
		meas = 16384
	}
	type pipelineCase struct {
		name  string
		n     int
		state int64
		m     int64
	}
	cases := []pipelineCase{
		{"n18-s128-M256", 18, 128, 256},
		{"n34-s128-M256", 34, 128, 256},
		{"n34-s256-M512", 34, 256, 512},
	}
	tb := report.NewTable(
		"E4: measured misses/source-firing vs Theorem 3 lower bound (LB = bandwidth/B; cache=M for baselines, 4M for partitioned)",
		"pipeline", "LB", "flat/LB", "demand/LB", "kohli/LB", "partitioned/LB", "partitioned/(bw(P)/B)")
	for _, c := range cases {
		g, err := uniformPipeline(c.name, c.n, c.state)
		if err != nil {
			return err
		}
		env := schedule.Env{M: c.m, B: 16}
		bound, err := lowerbound.Pipeline(g, c.m, 16)
		if err != nil {
			return err
		}
		row := []string{c.name, report.F(bound.PerSourceFiring)}
		for _, s := range []schedule.Scheduler{
			schedule.FlatTopo{}, schedule.DemandDriven{}, schedule.KohliGreedy{},
		} {
			res, err := measure(g, s, env, c.m, warm, meas)
			if err != nil {
				return err
			}
			row = append(row, report.Ratio(missesPerFiring(res), bound.PerSourceFiring))
		}
		part, err := measure(g, schedule.PartitionedPipeline{}, env, 4*c.m, warm, meas)
		if err != nil {
			return err
		}
		row = append(row, report.Ratio(missesPerFiring(part), bound.PerSourceFiring))
		// Upper-bound check: measured vs the partition's own bandwidth/B.
		p, err := partition.PipelineOptimalDP(g, c.m)
		if err != nil {
			return err
		}
		bw, err := p.Bandwidth(g)
		if err != nil {
			return err
		}
		upper := bw.Float() / 16
		row = append(row, report.Ratio(missesPerFiring(part), upper))
		tb.Add(row...)
	}
	return tb.Render(cfg.out)
}

// runE5 sweeps the augmentation factor: the partitioned scheduler designed
// for M running on a cache of c·M, versus the flat baseline on M.
func runE5(cfg runConfig) error {
	n, state, m := 34, int64(128), int64(256)
	warm, meas := int64(512), int64(2048)
	if cfg.full {
		meas = 8192
	}
	g, err := uniformPipeline("uniform-pipeline", n, state)
	if err != nil {
		return err
	}
	env := schedule.Env{M: m, B: 16}
	flat, err := measure(g, schedule.FlatTopo{}, env, m, warm, meas)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		fmt.Sprintf("E5: augmentation sweep (pipeline n=%d, state=%d, M=%d, B=16; flat baseline at cache=M: %s misses/item)",
			n, state, m, report.F(flat.MissesPerItem)),
		"cache", "partitioned misses/item", "speedup vs flat@M")
	for _, c := range []int64{1, 2, 4, 8} {
		res, err := measure(g, schedule.PartitionedPipeline{}, env, c*m, warm, meas)
		if err != nil {
			return err
		}
		tb.Add(fmt.Sprintf("%dM", c), report.F(res.MissesPerItem),
			report.Ratio(flat.MissesPerItem, res.MissesPerItem))
	}
	return tb.Render(cfg.out)
}

// runE8 sweeps block size B: the partitioned schedule's misses/item should
// scale as 1/B, so misses/item × B stays near constant.
func runE8(cfg runConfig) error {
	e8, err := buildE8(cfg.full)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		fmt.Sprintf("E8: block size sweep (pipeline n=%d, state=%d, M=%d, cache=2M)", e8.n, e8.state, e8.m),
		"B", "partitioned misses/item", "misses/item x B", "flat misses/item", "flat x B")
	for _, r := range e8.rows {
		tb.Add(report.I(r.b),
			report.F(r.partitioned), report.F(r.partitioned*float64(r.b)),
			report.F(r.flat), report.F(r.flat*float64(r.b)))
	}
	return tb.Render(cfg.out)
}

// e8Table is the table E8 prints: per block size, the partitioned and
// flat-topo misses per item.
type e8Table struct {
	n        int
	state, m int64
	rows     []e8Row
}

type e8Row struct {
	b                 int64
	partitioned, flat float64
}

// buildE8 measures E8's table.
func buildE8(full bool) (*e8Table, error) {
	e8 := &e8Table{n: 34, state: 128, m: 512}
	warm, meas := int64(512), int64(2048)
	if full {
		meas = 8192
	}
	g, err := uniformPipeline("uniform-pipeline", e8.n, e8.state)
	if err != nil {
		return nil, err
	}
	for _, b := range []int64{8, 16, 32, 64, 128} {
		env := schedule.Env{M: e8.m, B: b}
		cacheCfg := cachesim.Config{Capacity: 2 * e8.m, Block: b}
		part, err := schedule.Measure(g, schedule.PartitionedPipeline{}, env, cacheCfg, warm, meas)
		if err != nil {
			return nil, err
		}
		flat, err := schedule.Measure(g, schedule.FlatTopo{}, env, cacheCfg, warm, meas)
		if err != nil {
			return nil, err
		}
		e8.rows = append(e8.rows, e8Row{b, part.MissesPerItem, flat.MissesPerItem})
	}
	return e8, nil
}
