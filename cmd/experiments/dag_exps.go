package main

import (
	"fmt"

	"streamsched/internal/partition"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/workloads"
)

func init() {
	register("E6", "Tab 2: dag workloads, partitioned vs baselines", runE6)
	register("E7", "Fig 5: inhomogeneous graphs, batch scheduler vs M", runE7)
	register("E11", "Tab 4: degree-limit ablation (Lemma 8's O(M/B) condition)", runE11)
}

// runE6 measures the whole workload suite. Expected shape: the partitioned
// scheduler wins on every workload whose total state exceeds the cache,
// with the largest factors on the deepest graphs.
func runE6(cfg runConfig) error {
	e6, err := buildE6(cfg.full)
	if err != nil {
		return err
	}
	tb := report.NewTable(
		fmt.Sprintf("E6: workload suite, misses/item (M=%d, B=16, cache=2M)", e6.m),
		"workload", "shape", "state/M", "flat-topo", "scaled(s=4)", "partitioned", "flat/part")
	for _, r := range e6.rows {
		tb.Add(r.name, r.shape,
			report.Ratio(float64(r.totalState), float64(e6.m)),
			report.F(r.flat), report.F(r.scaled), report.F(r.partitioned),
			report.Ratio(r.flat, r.partitioned))
	}
	return tb.Render(cfg.out)
}

// e6Table is the table E6 prints: per workload, its shape, total state and
// the misses per item of flat-topo, scaled(s=4) and partitioned on a cache
// of 2M.
type e6Table struct {
	m    int64
	rows []e6Row
}

type e6Row struct {
	name, shape               string
	totalState                int64
	flat, scaled, partitioned float64
}

// buildE6 measures E6's table.
func buildE6(full bool) (*e6Table, error) {
	e6 := &e6Table{m: 512}
	warm, meas := int64(512), int64(1024)
	if full {
		meas = 4096
	}
	graphs, err := workloads.Suite(e6.m)
	if err != nil {
		return nil, err
	}
	env := schedule.Env{M: e6.m, B: 16}
	for _, g := range graphs {
		r := e6Row{name: g.Name(), shape: "dag", totalState: g.TotalState()}
		if g.IsPipeline() {
			r.shape = "pipeline"
		}
		if g.IsHomogeneous() {
			r.shape += ",homog"
		}
		flat, err := measure(g, schedule.FlatTopo{}, env, 2*e6.m, warm, meas)
		if err != nil {
			return nil, fmt.Errorf("%s flat: %w", g.Name(), err)
		}
		scaled, err := measure(g, schedule.Scaled{S: 4}, env, 2*e6.m, warm, meas)
		if err != nil {
			return nil, fmt.Errorf("%s scaled: %w", g.Name(), err)
		}
		part, err := measure(g, schedule.Partitioned(g, nil), env, 2*e6.m, warm, meas)
		if err != nil {
			return nil, fmt.Errorf("%s partitioned: %w", g.Name(), err)
		}
		r.flat, r.scaled, r.partitioned = flat.MissesPerItem, scaled.MissesPerItem, part.MissesPerItem
		e6.rows = append(e6.rows, r)
	}
	return e6, nil
}

// runE7 examines the inhomogeneous batch scheduler: how the batch size T
// and cross-edge buffers scale with M, and the resulting misses/item for
// the MP3 decoder and a decimating filterbank.
func runE7(cfg runConfig) error {
	warm, meas := int64(512), int64(2048)
	if cfg.full {
		meas = 8192
	}
	tb := report.NewTable(
		"E7: inhomogeneous batch scheduling (B=16, cache=2M)",
		"workload", "M", "T(batch)", "buffer-words", "batch misses/item", "flat misses/item", "flat/batch")
	for _, m := range []int64{256, 512, 1024, 2048} {
		env := schedule.Env{M: m, B: 16}
		mp3, err := workloads.MP3Decoder(m / 4) // largest table = M, total 2.75M
		if err != nil {
			return err
		}
		fb, err := workloads.Filterbank(6, 4, m/4)
		if err != nil {
			return err
		}
		for _, g := range []*sdf.Graph{mp3, fb} {
			s := schedule.PartitionedBatch{}
			plan, err := s.Prepare(g, env)
			if err != nil {
				return err
			}
			var bufWords int64
			for _, c := range plan.Caps {
				bufWords += c
			}
			t0 := g.Repetitions(g.Source())
			mult := (m + t0 - 1) / t0
			batch, err := measure(g, s, env, 2*m, warm, meas)
			if err != nil {
				return fmt.Errorf("%s M=%d: %w", g.Name(), m, err)
			}
			flat, err := measure(g, schedule.FlatTopo{}, env, 2*m, warm, meas)
			if err != nil {
				return err
			}
			tb.Add(g.Name(), report.I(m), report.I(t0*mult), report.I(bufWords),
				report.F(batch.MissesPerItem), report.F(flat.MissesPerItem),
				report.Ratio(flat.MissesPerItem, batch.MissesPerItem))
		}
	}
	return tb.Render(cfg.out)
}

// runE11 violates Lemma 8's degree-limit condition: a splitter component
// with fanout F needs one resident block per cross edge; once F·B exceeds
// the cache the per-edge streaming blocks evict each other and the upper
// bound degrades toward a factor-B loss, exactly as §5's notes predict.
func runE11(cfg runConfig) error {
	m := int64(256)
	b := int64(16)
	warm, meas := int64(512), int64(1024)
	if cfg.full {
		meas = 4096
	}
	env := schedule.Env{M: m, B: b}
	tb := report.NewTable(
		fmt.Sprintf("E11: splitter fanout vs misses/item (M=%d, B=%d, cache=2M; degree limit M/B=%d edges)",
			m, b, m/b),
		"fanout", "max comp degree", "degree-limited?", "partitioned misses/item", "misses/item per fanout")
	for _, fanout := range []int{2, 8, 16, 32, 64} {
		g, err := fanDag(fmt.Sprintf("fan%d", fanout), fanout, 48)
		if err != nil {
			return err
		}
		p, err := partition.Auto(g, m)
		if err != nil {
			return err
		}
		maxDeg := 0
		for _, d := range p.ComponentDegree(g) {
			if d > maxDeg {
				maxDeg = d
			}
		}
		limited := "yes"
		if int64(maxDeg) > m/b {
			limited = "no"
		}
		res, err := measure(g, schedule.PartitionedHomogeneous{P: p}, env, 2*m, warm, meas)
		if err != nil {
			return fmt.Errorf("fanout %d: %w", fanout, err)
		}
		tb.Add(report.I(int64(fanout)), report.I(int64(maxDeg)), limited,
			report.F(res.MissesPerItem), report.F(res.MissesPerItem/float64(fanout)))
	}
	return tb.Render(cfg.out)
}
