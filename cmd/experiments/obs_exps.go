package main

import (
	"fmt"
	"time"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/obs"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

func init() {
	register("E22", "instrumentation: metric totals vs exact simulator counts, replay-phase breakdown", runE22)
}

// runE22 validates the observability layer against the ground truth it
// instruments. A representative organisation sweep runs with a metrics
// registry attached (the process-wide one when -metrics/-v is live, a
// private one otherwise), and the counter deltas it publishes are checked
// exactly: trace.accesses must equal the sum of profiled trace lengths,
// and trace.profile.accesses must equal the access totals the exact cache
// simulator reports for the same schedules. The sweep profiles while each
// schedule runs, so it replays no log. Histogram observation counts
// are cross-checked against the counters the same way — every profiling
// pass must have recorded exactly one trace.profile observation, every
// sweep job one queue wait and one duration. A second part records one
// trace manually and splits the cost of profiling it into replay (a bare
// ForEach), profile (the profilers' RecordRun: timeline/stack
// maintenance), and merge (curve extraction, which is all the
// trace.profile timer covers).
func runE22(cfg runConfig) error {
	n, state := 24, int64(128)
	warm, meas := int64(512), int64(2048)
	if cfg.full {
		n, meas = 40, 8192
	}
	g, err := uniformPipeline("uniform-pipeline", n, state)
	if err != nil {
		return err
	}

	// Publish into the live session registry when one is installed so the
	// -metrics snapshot covers this sweep; otherwise a private registry
	// keeps the cross-check self-contained.
	reg := obs.Default()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	base := reg.Snapshot()
	sp := reg.StartSpan("e22")
	defer sp.End()

	env := schedule.Env{M: 512, B: 16, Metrics: reg}
	scheds := []schedule.Scheduler{schedule.FlatTopo{}, schedule.Scaled{S: 4}, schedule.Partitioned(g, nil)}
	caps := []int64{256, 1024, 4096}
	specs, _, err := trace.GridSpecs(caps, env.B, []int64{0, 1}, true)
	if err != nil {
		return err
	}

	stage := sp.Start("sweep")
	outcomes := schedule.SweepCurveOrgs(g, scheds, env, env.B, warm, meas, specs, 2)
	stage.End()
	results := make([]*schedule.CurveResult, 0, len(outcomes))
	for _, o := range outcomes {
		if o.Err != nil {
			return fmt.Errorf("%s: %w", o.Name, o.Err)
		}
		results = append(results, o.Value)
	}
	swept := reg.Snapshot()

	// Ground truth: the exact simulator's access count per schedule. The
	// stream is capacity-independent, so one capacity point suffices.
	stage = sp.Start("crosscheck")
	var simAccesses, traceLen, curveAccesses int64
	exact := true
	for i, s := range scheds {
		res, err := measure(g, s, env, caps[len(caps)-1], warm, meas)
		if err != nil {
			return err
		}
		simAccesses += res.Stats.Accesses
		traceLen += results[i].TraceLen
		curveAccesses += results[i].Curve.Accesses
		if res.Stats.Accesses != results[i].Curve.Accesses {
			exact = false
			fmt.Fprintf(cfg.out, "MISMATCH: %s: simulator %d accesses, profiled curve %d\n",
				s.Name(), res.Stats.Accesses, results[i].Curve.Accesses)
		}
	}
	stage.End()

	tb := report.NewTable(
		fmt.Sprintf("E22: metric counter deltas over the sweep (pipeline n=%d, state=%d, %d schedulers, %d organisations)",
			n, state, len(scheds), len(specs)),
		"counter", "delta", "expected", "source of truth")
	addCheck := func(name string, delta, want int64, truth string) {
		tb.Add(name, report.I(delta), report.I(want), truth)
		if delta != want {
			exact = false
			fmt.Fprintf(cfg.out, "MISMATCH: counter %s delta %d, want %d (%s)\n", name, delta, want, truth)
		}
	}
	if cfg.sharedMetrics {
		// Concurrent experiments publish into the same registry; the
		// deltas would blend their traffic, so only report, don't assert.
		fmt.Fprintln(cfg.out, "note: shared metrics registry under -jobs; exact counter cross-check skipped")
		tb.Add("trace.accesses", report.I(swept.CounterDelta(base, "trace.accesses")), "-", "shared registry")
		tb.Add("trace.profile.accesses", report.I(swept.CounterDelta(base, "trace.profile.accesses")), "-", "shared registry")
	} else {
		addCheck("trace.accesses", swept.CounterDelta(base, "trace.accesses"),
			traceLen, "sum of profiled trace lengths")
		addCheck("trace.profile.accesses", swept.CounterDelta(base, "trace.profile.accesses"),
			simAccesses, "exact simulator window accesses")
		addCheck("trace.profile.passes", swept.CounterDelta(base, "trace.profile.passes"),
			int64(len(scheds)), "one profiling pass per scheduler")
		if obs.Default() == reg {
			// The sweep pool publishes to the process-wide registry, not
			// the per-measure env one, so it only shows up when live.
			addCheck("sweep.jobs", swept.CounterDelta(base, "sweep.jobs"),
				int64(len(scheds)), "one sweep job per scheduler")
		}
		// Histogram observation counts vs counters: timers route through
		// same-named histogram siblings, and the aggregate histograms must
		// agree observation-for-observation with the counters.
		addCheck("trace.profile histogram count", swept.HistogramCountDelta(base, "trace.profile"),
			swept.CounterDelta(base, "trace.profile.passes"), "one observation per pass")
		if obs.Default() == reg {
			addCheck("sweep.queue.wait histogram count", swept.HistogramCountDelta(base, "sweep.queue.wait"),
				swept.CounterDelta(base, "sweep.jobs"), "one queue wait per sweep job")
			addCheck("sweep.job.duration histogram count", swept.HistogramCountDelta(base, "sweep.job.duration"),
				swept.CounterDelta(base, "sweep.jobs"), "one duration per sweep job")
		}
	}
	if err := tb.Render(cfg.out); err != nil {
		return err
	}
	status := "exact match on every schedule and counter"
	if !exact {
		status = "MISMATCHED (see above)"
	}
	fmt.Fprintf(cfg.out, "cross-validation of counters vs exact simulator (%d schedules): %s\n",
		len(scheds), status)
	fmt.Fprintf(cfg.out, "profiled %d accesses across %d recorded (warmup included)\n",
		curveAccesses, traceLen)

	// Replay-phase breakdown: one manually recorded trace, replayed twice
	// — bare, then into the profilers — plus the final curve merge.
	stage = sp.Start("breakdown")
	replayT, profileT, mergeT, accesses, err := replayBreakdown(g, scheds[len(scheds)-1], env, specs, warm, meas, reg)
	stage.End()
	if err != nil {
		return err
	}
	bt := report.NewTable(
		fmt.Sprintf("E22: replay cost breakdown, one trace of %d accesses, %d organisations", accesses, len(specs)),
		"phase", "time", "share")
	total := replayT + profileT + mergeT
	share := func(d time.Duration) string {
		if total <= 0 {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", 100*float64(d)/float64(total))
	}
	bt.Add("replay (bare ForEach)", replayT.Round(time.Microsecond).String(), share(replayT))
	bt.Add("profile (stacks + timeline)", profileT.Round(time.Microsecond).String(), share(profileT))
	bt.Add("merge (curve extraction)", mergeT.Round(time.Microsecond).String(), share(mergeT))
	if err := bt.Render(cfg.out); err != nil {
		return err
	}
	if !exact {
		return fmt.Errorf("metric counters diverged from the exact simulator")
	}
	return nil
}

// replayBreakdown records one trace of s and splits its profiling cost:
// replay is a bare block-by-block ForEach into a no-op consumer, profile
// is the extra cost of a second replay that feeds the stored runs to
// OrgProfilers.RecordRun — the recorder the live path uses — and merge is
// curve extraction. The profilers' totals are published to reg so the
// snapshot stays consistent with the work done.
func replayBreakdown(g *sdf.Graph, s schedule.Scheduler, env schedule.Env, specs []trace.OrgSpec, warm, meas int64, reg *obs.Registry) (replay, profile, merge time.Duration, accesses int64, err error) {
	log := trace.NewLog()
	log.SetMetrics(reg)
	defer log.Close()
	_, _, err = schedule.Window{
		Span:     "e22.breakdown",
		Cache:    cachesim.Config{Block: env.B},
		Recorder: log,
		Mark:     func(*exec.Machine) { log.MarkWindow() },
	}.Measure(g, s, env, warm, meas)
	if err != nil {
		return 0, 0, 0, 0, err
	}

	start := time.Now()
	_ = log.ForEach(func(int64) {}) // a replay cannot fail: the error is always nil
	replay = time.Since(start)

	p, err := trace.NewOrgProfilers(specs)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	start = time.Now()
	log.ForEachRunWindowed(p.ResetCounts, p.RecordRun)
	if profile = time.Since(start) - replay; profile < 0 {
		profile = 0 // replay jitter can dip under the bare-replay sample
	}
	start = time.Now()
	curves := p.Curves()
	merge = time.Since(start)
	p.PublishMetrics(reg, curves)
	return replay, profile, merge, curves[0].LRU.Accesses, nil
}
