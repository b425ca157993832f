package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
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
	grid := addLevelGridFlags(fs, "hier")
	warm := fs.Int64("warm", 1024, "warmup source firings")
	meas := fs.Int64("measure", 4096, "measured source firings")
	scale := fs.Int64("scale", 4, "scaling factor for -sched scaled")
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
	if *warm < 0 {
		return fmt.Errorf("hier: warm must be non-negative, got %d\n%w", *warm, errUsage)
	}
	l1s, l2s, cm, err := grid.parse(*b)
	if err != nil {
		return err
	}
	spec := streamsched.HierSpec{Block: *b, L1s: l1s, L2s: l2s}
	scheds, err := schedulersBy(*sched, g, *scale)
	if err != nil {
		return err
	}
	sess, err := of.start(out)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	env := schedule.Env{M: *m, B: *b}
	sweepSp := obs.Default().StartSpan("hier.sweep")
	results, err := schedule.Sweep(scheds, func(s schedule.Scheduler) (*schedule.HierResult, error) {
		return schedule.MeasureHier(g, s, env, spec, *warm, *meas)
	})
	sweepSp.End()
	if err != nil {
		return fmt.Errorf("hier: %w", err)
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

// levelGrid is the (L1, L2) design grid hier and shared evaluate: the
// eight flags that describe it, registered and parsed in one place.
type levelGrid struct {
	verb                               string
	l1caps, l1ways, l1policy           *string
	l2caps, l2ways, l2policy, costFlag *string
	l2block                            *int64
}

// addLevelGridFlags registers the grid flags on fs for the named verb.
func addLevelGridFlags(fs *flag.FlagSet, verb string) *levelGrid {
	return &levelGrid{
		verb:     verb,
		l1caps:   fs.String("l1caps", "", "comma-separated L1 capacities in words (k/m suffixes ok)"),
		l1ways:   fs.String("l1ways", "full", "L1 associativities: way counts and/or \"full\""),
		l1policy: fs.String("l1policy", "lru", "L1 replacement policy: lru or fifo"),
		l2caps:   fs.String("l2caps", "", "comma-separated L2 capacities in words"),
		l2block:  fs.Int64("l2block", 0, "L2 block size in words (default: the L1 block)"),
		l2ways:   fs.String("l2ways", "full", "L2 associativities: way counts and/or \"full\""),
		l2policy: fs.String("l2policy", "lru", "L2 replacement policy: lru or fifo"),
		costFlag: fs.String("amat", "1,10,100", "cost model: L1-hit,L2-hit,memory latencies"),
	}
}

// parse validates the flags against the L1 block b and returns the L1 and
// L2 design points (capacity-major, ways-minor) and the cost model.
func (lg *levelGrid) parse(b int64) (l1s, l2s []hierarchy.Level, cm hierarchy.CostModel, err error) {
	l2block := *lg.l2block
	if l2block < 0 {
		return nil, nil, cm, fmt.Errorf("%s: -l2block %d must be positive", lg.verb, l2block)
	}
	if l2block == 0 {
		l2block = b
	}
	if l2block%b != 0 {
		return nil, nil, cm, fmt.Errorf("%s: -l2block %d must be a multiple of the L1 block %d", lg.verb, l2block, b)
	}
	if l1s, err = lg.level("l1", *lg.l1caps, *lg.l1ways, *lg.l1policy, b); err != nil {
		return nil, nil, cm, err
	}
	if l2s, err = lg.level("l2", *lg.l2caps, *lg.l2ways, *lg.l2policy, l2block); err != nil {
		return nil, nil, cm, err
	}
	cm, err = parseCostModel(lg.verb, *lg.costFlag)
	return l1s, l2s, cm, err
}

// level parses one level's capacity, associativity and policy flags into
// its design points.
func (lg *levelGrid) level(name, capsVal, waysVal, policyVal string, block int64) ([]hierarchy.Level, error) {
	caps, err := parseCapsFlag(lg.verb, "-"+name+"caps", capsVal, block)
	if err != nil {
		return nil, err
	}
	if caps == nil { // unlike misscurve's -caps, a level has no default grid
		return nil, fmt.Errorf("%s: -%scaps lists no capacities\n%w", lg.verb, name, errUsage)
	}
	ways, err := parseWaysFlag(lg.verb, "-"+name+"ways", waysVal)
	if err != nil {
		return nil, err
	}
	if err := validateGeometries(lg.verb, "-"+name+"ways", caps, block, ways); err != nil {
		return nil, err
	}
	pol, err := parsePolicy(lg.verb, "-"+name+"policy", policyVal)
	if err != nil {
		return nil, err
	}
	var levels []hierarchy.Level
	for _, c := range caps {
		for _, w := range ways {
			levels = append(levels, hierarchy.Level{Capacity: c, Block: block, Ways: w, Policy: pol})
		}
	}
	return levels, nil
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
		if err != nil || v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
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
