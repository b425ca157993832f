package main

import (
	"errors"
	"flag"
	"fmt"
	"io"

	"streamsched"
	"streamsched/internal/hierarchy"
	"streamsched/internal/obs"
	"streamsched/internal/parallel"
	"streamsched/internal/partition"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
)

// cmdShared makes one multiprocessor run — P logical processors with
// private L1-sized design caches claiming components under the
// homogeneous or pipeline rule — and evaluates a whole shared-L2 grid
// while it goes: every processor gets a private replica of each L1 design
// point, and the interleaved miss streams contend for each shared L2
// design point in exactly the emitted order. A second table breaks one
// grid point down per processor (private-L1 and attributed shared-L2
// traffic, per-processor cost, makespan) via the exact shared simulator,
// fed by the same run.
func cmdShared(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	of := addObsFlags(fs)
	m := fs.Int64("M", 0, "design cache size in words (schedules are planned for this)")
	b := fs.Int64("B", 16, "L1 block size in words (also the trace granularity)")
	procs := fs.Int("P", 2, "simulated processors (each with a private L1)")
	rule := fs.String("rule", "auto", "claiming rule: auto, homogeneous, or pipeline")
	algo := fs.String("algo", "auto", "partitioning algorithm (run.go names, or singleton)")
	grid := addLevelGridFlags(fs, "shared")
	warm := fs.Int64("warm", 1024, "warmup source firings")
	meas := fs.Int64("measure", 4096, "measured source firings")
	detail := fs.Bool("detail", true, "per-processor breakdown of the first grid point")
	addIgnoredJobsFlags(fs)
	csv := fs.Bool("csv", false, "emit CSV instead of a table")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	g, err := loadGraph(fs)
	if err != nil {
		return err
	}
	if *m <= 0 || *b <= 0 {
		return fmt.Errorf("shared: -M and -B must be positive\n%w", errUsage)
	}
	if *warm < 0 {
		return fmt.Errorf("shared: warm must be non-negative, got %d\n%w", *warm, errUsage)
	}
	if *procs < 1 {
		return fmt.Errorf("shared: -P must be >= 1, got %d", *procs)
	}
	var prule parallel.Rule
	switch *rule {
	case "auto":
		prule = parallel.AutoRule
	case "homogeneous":
		prule = parallel.HomogeneousRule
	case "pipeline":
		prule = parallel.PipelineRule
	default:
		return fmt.Errorf("shared: bad -rule %q (want auto, homogeneous, or pipeline)\n%w", *rule, errUsage)
	}
	l1s, l2s, cm, err := grid.parse(*b)
	if err != nil {
		return err
	}

	var part *partition.Partition
	if *algo == "singleton" {
		part = partition.Singleton(g)
	} else {
		part, err = partitionBy(*algo, g, *m)
		if err != nil {
			return err
		}
	}

	spec := streamsched.SharedHierSpec{Block: *b, Procs: *procs, L1s: l1s, L2s: l2s}

	sess, err := of.start(out)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()

	cfg := parallel.Config{
		Procs: *procs,
		Env:   schedule.Env{M: *m, B: *b},
		Cache: streamsched.CacheConfig{Capacity: 2 * *m, Block: *b},
		Rule:  prule,
	}
	// One execution serves everything below: the grid profiler and, when
	// the detail table is printed, its simulator are both the window's sink.
	prof, err := hierarchy.NewSharedProfiler(spec)
	if err != nil {
		return err
	}
	var curves *hierarchy.SharedCurves
	w := parallel.Window{
		Span: "shared",
		Sink: prof.RecordRun,
		Warm: prof.StartWarmup,
		Mark: prof.ResetCounts,
		Profile: func() (err error) {
			curves, err = prof.Curves(obs.Default())
			return err
		},
	}
	var sim *hierarchy.SharedSim
	if *detail && !*csv {
		if sim, err = hierarchy.NewSharedSim(spec.Config(0, 0)); err != nil {
			return err
		}
		w.Sink = func(p int, base, n int64) {
			prof.RecordRun(p, base, n)
			sim.RecordRun(p, base, n)
		}
		w.Mark = func() {
			prof.ResetCounts()
			sim.ResetStats()
		}
	}
	res, traceLen, err := w.Measure(g, part, cfg, *warm, *meas)
	if err != nil {
		return err
	}
	perItem := func(n int64) float64 {
		if res.InputItems <= 0 {
			return 0
		}
		return float64(n) / float64(res.InputItems)
	}

	tb := report.NewTable(
		fmt.Sprintf("shared-L2 hierarchy misses/item and AMAT (%s, P=%d, rule=%s, designed for M=%d, B=%d, one traced run)",
			g.Name(), *procs, prule, *m, *b),
		"L1 (private x P)", "L2 (shared)", "L1miss/item", "L2miss/item", "AMAT")
	for i := range spec.L1s {
		for j := range spec.L2s {
			m1, m2 := curves.Point(i, j)
			tb.Add(spec.L1s[i].String(), spec.L2s[j].String(),
				report.F(perItem(m1)), report.F(perItem(m2)), report.F(curves.AMAT(i, j, cm)))
		}
	}
	if *csv {
		return tb.RenderCSV(out)
	}
	if err := tb.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: trace %d accesses (%d in window) over %d items, makespan %d blocks\n",
		prule, traceLen, curves.Accesses, res.InputItems, res.MakespanBlocks)

	if sim != nil {
		sim.PublishMetrics(obs.Default())
		dt := report.NewTable(
			fmt.Sprintf("per-processor breakdown at L1=%s, L2=%s (makespan %.1f, AMAT %.3f)",
				spec.L1s[0], spec.L2s[0], sim.Makespan(cm), sim.AMAT(cm)),
			"proc", "L1 accesses", "L1 misses", "L2 hits", "L2 misses", "cost")
		for p := 0; p < *procs; p++ {
			l1, l2 := sim.L1Stats(p), sim.ProcL2Stats(p)
			dt.Add(report.I(int64(p)), report.I(l1.Accesses), report.I(l1.Misses),
				report.I(l2.Hits), report.I(l2.Misses), report.F1(sim.ProcCost(p, cm)))
		}
		if err := dt.Render(out); err != nil {
			return err
		}
	}
	return nil
}
