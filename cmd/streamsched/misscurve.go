package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"

	"streamsched/internal/obs"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
	"streamsched/internal/trace"
)

// cmdMissCurve records one trace per scheduler and reuse-distance profiles
// it, printing misses/item for a whole grid of cache capacities from a
// single run each — the one-pass replacement for sweeping `simulate -cache`.
// With -ways/-policy the same traces also answer set-associative and FIFO
// organisations (one table per organisation), still one run per scheduler.
func cmdMissCurve(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("misscurve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	of := addObsFlags(fs)
	m := fs.Int64("M", 0, "design cache size in words (schedules are planned for this)")
	b := fs.Int64("B", 16, "block size in words")
	sched := fs.String("sched", "all", "scheduler, or \"all\" for baselines + partitioned")
	capsFlag := fs.String("caps", "", "comma-separated capacities in words (k/m suffixes ok; default: powers of two to saturation)")
	waysFlag := fs.String("ways", "full", "comma-separated associativities: way counts and/or \"full\"")
	policyFlag := fs.String("policy", "lru", "replacement policies: lru, fifo, or both")
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
		return fmt.Errorf("misscurve: -M and -B must be positive\n%w", errUsage)
	}
	if *warm < 0 {
		return fmt.Errorf("misscurve: warm must be non-negative, got %d\n%w", *warm, errUsage)
	}
	scheds, err := schedulersBy(*sched, g, *scale)
	if err != nil {
		return err
	}
	// Validate the explicit capacity list before paying for the sweep.
	caps, err := parseCapsFlag("misscurve", "-caps", *capsFlag, *b)
	if err != nil {
		return err
	}
	waysList, err := parseWaysFlag("misscurve", "-ways", *waysFlag)
	if err != nil {
		return err
	}
	policies, err := parsePolicies(*policyFlag)
	if err != nil {
		return err
	}
	sess, err := of.start(out)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	env := schedule.Env{M: *m, B: *b}

	// The fully-associative LRU curve comes with every recording; any other
	// organisation is profiled alongside it from the same trace, and needs
	// its set counts — hence an explicit capacity grid — before the sweep.
	defaultOrg := len(waysList) == 1 && waysList[0] == 0 && len(policies) == 1 && policies[0] == "LRU"
	var specs []trace.OrgSpec
	var specIdx map[int64]int
	if !defaultOrg {
		if caps == nil {
			return fmt.Errorf("misscurve: -ways/-policy need an explicit -caps grid (set counts depend on the capacities)")
		}
		if err := validateGeometries("misscurve", "-ways", caps, *b, waysList); err != nil {
			return err
		}
		fifo := false
		for _, p := range policies {
			fifo = fifo || p == "FIFO"
		}
		if specs, specIdx, err = trace.GridSpecs(caps, *b, waysList, fifo); err != nil {
			return fmt.Errorf("misscurve: %w", err)
		}
	}
	sweepSp := obs.Default().StartSpan("misscurve.sweep")
	results, err := schedule.Sweep(scheds, func(s schedule.Scheduler) (*schedule.CurveResult, error) {
		return schedule.MeasureCurveOrgs(g, s, env, *b, *warm, *meas, specs)
	})
	sweepSp.End()
	if err != nil {
		return fmt.Errorf("misscurve: %w", err)
	}
	if defaultOrg {
		if caps == nil {
			// Default grid: up to just past the largest working set.
			var lines int64
			for _, r := range results {
				lines = max(lines, r.Curve.SaturationLines())
			}
			caps = trace.DefaultCapacityGrid(*b, lines)
		}
		tb := curveTable(g.Name(), *m, *b, "LRU fully-associative", caps, results,
			func(r *schedule.CurveResult, c int64) float64 {
				return r.MissesPerItem(c, *b)
			})
		if *csv {
			return tb.RenderCSV(out)
		}
		if err := tb.Render(out); err != nil {
			return err
		}
		for _, r := range results {
			fmt.Fprintf(out, "%s: %d accesses over %d items, working set %d blocks\n",
				r.Scheduler, r.Curve.Accesses, r.InputItems, r.Curve.SaturationLines())
		}
		return nil
	}
	missesPerItem := func(r *schedule.CurveResult, c, w int64, pol string) float64 {
		if r.InputItems <= 0 {
			return 0
		}
		sets, _ := trace.SetsFor(c, *b, w) // grid validated by GridSpecs above
		misses, _ := r.Orgs[specIdx[sets]].Misses(trace.EffectiveWays(c, *b, w), pol == "FIFO")
		return float64(misses) / float64(r.InputItems)
	}
	if *csv {
		// One combined table: an organisation column keeps the rows
		// attributable (RenderCSV has no table titles).
		cols := []string{"organisation", "capacity"}
		for _, r := range results {
			cols = append(cols, r.Scheduler)
		}
		tb := report.NewTable("misses/item by organisation", cols...)
		for _, w := range waysList {
			for _, pol := range policies {
				for _, c := range caps {
					row := []string{fmt.Sprintf("%s %s", pol, waysLabel(w)), report.I(c)}
					for _, r := range results {
						row = append(row, report.F(missesPerItem(r, c, w, pol)))
					}
					tb.Add(row...)
				}
			}
		}
		return tb.RenderCSV(out)
	}
	for _, w := range waysList {
		for _, pol := range policies {
			tb := curveTable(g.Name(), *m, *b, fmt.Sprintf("%s %s", pol, waysLabel(w)), caps, results,
				func(r *schedule.CurveResult, c int64) float64 {
					return missesPerItem(r, c, w, pol)
				})
			if err := tb.Render(out); err != nil {
				return err
			}
		}
	}
	return nil
}

// curveTable renders one capacity-by-scheduler table of misses/item.
func curveTable(graph string, m, b int64, org string, caps []int64, results []*schedule.CurveResult, val func(*schedule.CurveResult, int64) float64) *report.Table {
	cols := []string{"capacity"}
	for _, r := range results {
		cols = append(cols, r.Scheduler)
	}
	tb := report.NewTable(
		fmt.Sprintf("misses/item vs cache capacity (%s, %s, designed for M=%d, B=%d, one trace per scheduler)",
			graph, org, m, b),
		cols...)
	for _, c := range caps {
		row := []string{report.I(c)}
		for _, r := range results {
			row = append(row, report.F(val(r, c)))
		}
		tb.Add(row...)
	}
	return tb
}

// parseWaysFlag parses an associativity-list flag: a comma-separated mix
// of way counts and the word "full" (or 0) for fully associative.
func parseWaysFlag(verb, flagName, flagVal string) ([]int64, error) {
	var out []int64
	seen := map[int64]bool{}
	for _, f := range strings.Split(flagVal, ",") {
		f = strings.TrimSpace(f)
		var w int64
		switch f {
		case "":
			continue
		case "full", "fa", "0":
			w = 0
		default:
			v, err := strconv.ParseInt(f, 10, 64)
			if err != nil || v < 1 {
				return nil, fmt.Errorf("%s: bad %s entry %q (want a positive way count or \"full\")", verb, flagName, f)
			}
			w = v
		}
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: %s lists no associativities", verb, flagName)
	}
	return out, nil
}

// parsePolicies parses the -policy flag into a subset of {LRU, FIFO}.
func parsePolicies(flagVal string) ([]string, error) {
	if strings.EqualFold(strings.TrimSpace(flagVal), "both") {
		return []string{"LRU", "FIFO"}, nil
	}
	var out []string
	seen := map[string]bool{}
	for _, f := range strings.Split(flagVal, ",") {
		f = strings.ToUpper(strings.TrimSpace(f))
		if f == "" {
			continue
		}
		if f != "LRU" && f != "FIFO" {
			return nil, fmt.Errorf("misscurve: bad -policy entry %q (want lru, fifo, or both)", f)
		}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("misscurve: -policy lists no policies")
	}
	return out, nil
}

// waysLabel formats an associativity for table titles.
func waysLabel(ways int64) string {
	switch ways {
	case 0:
		return "fully-associative"
	case 1:
		return "direct-mapped"
	default:
		return fmt.Sprintf("%d-way", ways)
	}
}

// parseCapsFlag parses a capacity-list flag into block-aligned
// capacities, or returns nil when the flag is empty (a caller with a
// default grid derives it; one that requires the flag rejects nil).
func parseCapsFlag(verb, flagName, flagVal string, block int64) ([]int64, error) {
	if strings.TrimSpace(flagVal) == "" {
		return nil, nil
	}
	var caps []int64
	for _, f := range strings.Split(flagVal, ",") {
		v, err := parseSize(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("%s: bad %s capacity %q: %w", verb, flagName, f, err)
		}
		if v < block {
			return nil, fmt.Errorf("%s: %s capacity %d below block size %d", verb, flagName, v, block)
		}
		caps = append(caps, v-v%block)
	}
	return caps, nil
}
