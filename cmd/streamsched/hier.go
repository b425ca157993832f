package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"streamsched"
	"streamsched/internal/cachesim"
	"streamsched/internal/hierarchy"
	"streamsched/internal/obs"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
	"streamsched/internal/trace"
)

// cmdHier records one trace per scheduler and evaluates a whole (L1, L2)
// hierarchy grid from each — exact per-level misses for every pairing of
// the L1 and L2 design points, plus an AMAT-style composed cost, without
// re-running any schedule per point. The hierarchy is non-inclusive: the
// L2 sees exactly the L1's miss stream.
func cmdHier(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("hier", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	of := addObsFlags(fs)
	m := fs.Int64("M", 0, "design cache size in words (schedules are planned for this)")
	b := fs.Int64("B", 16, "L1 block size in words (also the trace granularity)")
	sched := fs.String("sched", "all", "scheduler, or \"all\" for baselines + partitioned")
	l1capsFlag := fs.String("l1caps", "", "comma-separated L1 capacities in words (k/m suffixes ok)")
	l1waysFlag := fs.String("l1ways", "full", "L1 associativities: way counts and/or \"full\"")
	l1policyFlag := fs.String("l1policy", "lru", "L1 replacement policy: lru or fifo")
	l2capsFlag := fs.String("l2caps", "", "comma-separated L2 capacities in words")
	l2block := fs.Int64("l2block", 0, "L2 block size in words (default: the L1 block)")
	l2waysFlag := fs.String("l2ways", "full", "L2 associativities: way counts and/or \"full\"")
	l2policyFlag := fs.String("l2policy", "lru", "L2 replacement policy: lru or fifo")
	amatFlag := fs.String("amat", "1,10,100", "cost model: L1-hit,L2-hit,memory latencies")
	warm := fs.Int64("warm", 1024, "warmup source firings")
	meas := fs.Int64("measure", 4096, "measured source firings")
	scale := fs.Int64("scale", 4, "scaling factor for -sched scaled")
	workers := fs.Int("workers", 0, "parallel recordings (default GOMAXPROCS)")
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
		return fmt.Errorf("hier: -M and -B must be positive\n%w", errUsage)
	}
	if *l2block == 0 {
		*l2block = *b
	}
	if *l2block%*b != 0 {
		return fmt.Errorf("hier: -l2block %d must be a multiple of the L1 block %d", *l2block, *b)
	}
	l1caps, err := parseLevelCaps("hier", "-l1caps", *l1capsFlag, *b)
	if err != nil {
		return err
	}
	l2caps, err := parseLevelCaps("hier", "-l2caps", *l2capsFlag, *l2block)
	if err != nil {
		return err
	}
	l1ways, err := parseWaysFlag("hier", "-l1ways", *l1waysFlag)
	if err != nil {
		return err
	}
	l2ways, err := parseWaysFlag("hier", "-l2ways", *l2waysFlag)
	if err != nil {
		return err
	}
	if err := validateGeometries("hier", "-l1ways", l1caps, *b, l1ways); err != nil {
		return err
	}
	if err := validateGeometries("hier", "-l2ways", l2caps, *l2block, l2ways); err != nil {
		return err
	}
	l1pol, err := parsePolicy("hier", "-l1policy", *l1policyFlag)
	if err != nil {
		return err
	}
	l2pol, err := parsePolicy("hier", "-l2policy", *l2policyFlag)
	if err != nil {
		return err
	}
	cm, err := parseCostModel("hier", *amatFlag)
	if err != nil {
		return err
	}

	spec := streamsched.HierSpec{Block: *b}
	for _, c := range l1caps {
		for _, w := range l1ways {
			spec.L1s = append(spec.L1s, streamsched.HierLevel{Capacity: c, Block: *b, Ways: w, Policy: l1pol})
		}
	}
	for _, c := range l2caps {
		for _, w := range l2ways {
			spec.L2s = append(spec.L2s, streamsched.HierLevel{Capacity: c, Block: *l2block, Ways: w, Policy: l2pol})
		}
	}

	var scheds []schedule.Scheduler
	if *sched == "all" {
		scheds = streamsched.Baselines()
		part, err := schedulerBy("partitioned", g, *scale)
		if err != nil {
			return err
		}
		scheds = append(scheds, part)
	} else {
		s, err := schedulerBy(*sched, g, *scale)
		if err != nil {
			return err
		}
		scheds = []schedule.Scheduler{s}
	}
	sess, err := of.start(out)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	env := schedule.Env{M: *m, B: *b}
	sweepSp := obs.Default().StartSpan("hier.sweep")
	outcomes := schedule.SweepHier(g, scheds, env, spec, *warm, *meas, *workers)
	sweepSp.End()
	results, err := collectSweep("hier", outcomes)
	if err != nil {
		return err
	}

	tb := report.NewTable(
		fmt.Sprintf("hierarchy misses/item and AMAT (%s, non-inclusive, designed for M=%d, B=%d, one trace per scheduler)",
			g.Name(), *m, *b),
		"scheduler", "L1", "L2", "L1miss/item", "L2miss/item", "AMAT")
	for _, r := range results {
		for i := range spec.L1s {
			for j := range spec.L2s {
				m1, m2 := r.MissesPerItem(i, j)
				tb.Add(r.Scheduler, spec.L1s[i].String(), spec.L2s[j].String(),
					report.F(m1), report.F(m2), report.F(r.Curves.AMAT(i, j, cm)))
			}
		}
	}
	if *csv {
		return tb.RenderCSV(out)
	}
	if err := tb.Render(out); err != nil {
		return err
	}
	for _, r := range results {
		fmt.Fprintf(out, "%s: trace %d accesses (%d in window) over %d items\n",
			r.Scheduler, r.TraceLen, r.Curves.Accesses, r.InputItems)
	}
	return nil
}

// parseLevelCaps parses a required capacity-list flag (misscurve's
// parseCapsFlag, minus its empty-means-default-grid case).
func parseLevelCaps(verb, flagName, flagVal string, block int64) ([]int64, error) {
	caps, err := parseCapsFlag(verb, flagName, flagVal, block)
	if err != nil {
		return nil, err
	}
	if caps == nil {
		return nil, fmt.Errorf("%s: %s lists no capacities\n%w", verb, flagName, errUsage)
	}
	return caps, nil
}

// parsePolicy parses a single-policy flag into a cachesim policy.
func parsePolicy(verb, flagName, flagVal string) (cachesim.Policy, error) {
	switch strings.ToLower(strings.TrimSpace(flagVal)) {
	case "lru":
		return cachesim.LRU, nil
	case "fifo":
		return cachesim.FIFO, nil
	default:
		return 0, fmt.Errorf("%s: bad %s %q (want lru or fifo)", verb, flagName, flagVal)
	}
}

// parseCostModel parses the -amat flag's three comma-separated latencies.
func parseCostModel(verb, flagVal string) (hierarchy.CostModel, error) {
	parts := strings.Split(flagVal, ",")
	if len(parts) != 3 {
		return hierarchy.CostModel{}, fmt.Errorf("%s: -amat wants three latencies (L1-hit,L2-hit,memory), got %q", verb, flagVal)
	}
	var vals [3]float64
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil || v < 0 {
			return hierarchy.CostModel{}, fmt.Errorf("%s: bad -amat latency %q", verb, p)
		}
		vals[i] = v
	}
	return hierarchy.CostModel{L1Hit: vals[0], L2Hit: vals[1], Mem: vals[2]}, nil
}

// validateGeometries checks every (capacity, ways) pairing of one level's
// grid up front, so a bad associativity fails with a message naming the
// offending flag values instead of a deep SetsFor error mid-profiling.
// Validity itself is trace.SetsFor's — the single source of the geometry
// rules — this layer only rewrites its verdicts in flag terms.
func validateGeometries(verb, waysFlag string, caps []int64, block int64, ways []int64) error {
	for _, c := range caps {
		for _, w := range ways {
			if _, err := trace.SetsFor(c, block, w); err != nil {
				lines := c / block
				if w > lines {
					return fmt.Errorf("%s: %s %d exceeds the %d cache lines of capacity %d (block %d)",
						verb, waysFlag, w, lines, c, block)
				}
				return fmt.Errorf("%s: %s %d does not divide the %d cache lines of capacity %d (block %d); use a capacity whose line count is a multiple of the associativity",
					verb, waysFlag, w, lines, c, block)
			}
		}
	}
	return nil
}
