package main

import (
	"fmt"

	"streamsched/internal/report"
	"streamsched/internal/schedule"
)

func init() {
	register("E19", "one-pass miss curves: the E1 M-sweep from one trace per scheduler", runE19)
}

// runE19 regenerates the shape of E1 — misses/item vs cache size for every
// scheduler — but from one recorded trace per scheduler instead of one
// simulation per (scheduler, M) point: Mattson reuse-distance profiling
// yields the exact fully-associative LRU miss count for every capacity in
// a single pass. TestMeasureCurveMatchesMeasure holds the curve against
// the cache simulator for every scheduler here, on random graphs.
func runE19(cfg runConfig) error {
	n, state := 34, int64(128)
	warm, meas := int64(512), int64(2048)
	if cfg.full {
		n, meas = 66, 8192
	}
	g, err := uniformPipeline("uniform-pipeline", n, state)
	if err != nil {
		return err
	}
	// Schedules are planned once for a mid-range design size; the curves
	// then evaluate those fixed schedules across the whole capacity axis.
	designM := int64(512)
	env := schedule.Env{M: designM, B: 16}
	scheds := append(schedule.Baselines(), schedule.Partitioned(g, nil))

	results, err := schedule.Sweep(scheds, func(s schedule.Scheduler) (*schedule.CurveResult, error) {
		return schedule.MeasureCurve(g, s, env, env.B, warm, meas)
	})
	if err != nil {
		return err
	}

	caps := []int64{256, 512, 1024, 2048, 4096, 8192}
	cols := []string{"cache"}
	for _, r := range results {
		cols = append(cols, r.Scheduler)
	}
	tb := report.NewTable(
		fmt.Sprintf("E19: misses/item vs cache capacity from one trace/scheduler (pipeline n=%d, state=%d, designed at M=%d, B=16)",
			n, state, designM),
		cols...)
	for _, c := range caps {
		row := []string{report.I(c)}
		for _, r := range results {
			row = append(row, report.F(r.MissesPerItem(c, env.B)))
		}
		tb.Add(row...)
	}
	if err := tb.Render(cfg.out); err != nil {
		return err
	}

	for _, r := range results {
		fmt.Fprintf(cfg.out, "%s: trace %d accesses (%d in window), working set %d blocks\n",
			r.Scheduler, r.TraceLen, r.Curve.Accesses, r.Curve.SaturationLines())
	}
	return nil
}
