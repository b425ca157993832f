// Command obsreport renders the trend between two internal/obs metrics
// snapshots — the JSON the -metrics flag writes and the /metrics.json
// endpoint serves — as a markdown report: counter deltas, gauge levels,
// and histogram percentile shifts. CI uploads the output into the job
// step summary so a run's observability trend is readable without
// downloading artifacts:
//
//	obsreport -head final.json [-base midrun.json] [-o report.md]
//
// With -base, every value is reported as a base → head shift and counter
// deltas subtract the base; without it the head snapshot is reported
// alone. Every duration is a histogram, so the histograms section carries
// each one's count, total, and percentiles. Output is sorted by metric
// name, so diffs of reports are stable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"streamsched/internal/obs"
)

func main() {
	base := flag.String("base", "", "optional base snapshot JSON (deltas and shifts are relative to it)")
	head := flag.String("head", "", "head snapshot JSON (required)")
	out := flag.String("o", "-", "output path (- for stdout)")
	flag.Parse()

	if *head == "" {
		fmt.Fprintln(os.Stderr, "obsreport: -head is required")
		os.Exit(2)
	}
	headSnap, err := readSnapshot(*head)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
		os.Exit(2)
	}
	var baseSnap *obs.Snapshot
	if *base != "" {
		if baseSnap, err = readSnapshot(*base); err != nil {
			fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
			os.Exit(2)
		}
	}
	w := io.Writer(os.Stdout)
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		w = f
	}
	if err := render(w, baseSnap, headSnap); err != nil {
		fmt.Fprintf(os.Stderr, "obsreport: %v\n", err)
		os.Exit(1)
	}
}

func readSnapshot(path string) (*obs.Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &obs.Snapshot{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// unionKeys returns the sorted union of both maps' keys (base may be
// absent), so metrics that exist on only one side still appear.
func unionKeys[V any](base, head map[string]V) []string {
	seen := map[string]bool{}
	for k := range head {
		seen[k] = true
	}
	for k := range base {
		seen[k] = true
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// shift formats a base → head transition, collapsing to just the head
// value when there is no base or no change.
func shift(hasBase bool, base, head int64) string {
	if !hasBase || base == head {
		return fmt.Sprintf("%d", head)
	}
	return fmt.Sprintf("%d → %d", base, head)
}

// render writes the markdown trend report. A nil base reports head alone.
func render(w io.Writer, base, head *obs.Snapshot) error {
	var b strings.Builder
	b.WriteString("## Metrics trend\n\n")
	hasBase := base != nil
	if !hasBase {
		base = &obs.Snapshot{}
		b.WriteString("_No base snapshot; reporting head values._\n\n")
	}

	if keys := unionKeys(base.Counters, head.Counters); len(keys) > 0 {
		b.WriteString("### Counters\n\n| counter | value | delta |\n|---|---:|---:|\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "| `%s` | %s | %+d |\n",
				k, shift(hasBase, base.Counters[k], head.Counters[k]), head.CounterDelta(base, k))
		}
		b.WriteString("\n")
	}

	if keys := unionKeys(base.Gauges, head.Gauges); len(keys) > 0 {
		b.WriteString("### Gauges\n\n| gauge | value |\n|---|---:|\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "| `%s` | %s |\n", k, shift(hasBase, base.Gauges[k], head.Gauges[k]))
		}
		b.WriteString("\n")
	}

	if keys := unionKeys(base.Histograms, head.Histograms); len(keys) > 0 {
		b.WriteString("### Histograms\n\n| histogram | count | p50 | p90 | p99 | max |\n|---|---:|---:|---:|---:|---:|\n")
		for _, k := range keys {
			hb, hh := base.Histograms[k], head.Histograms[k]
			fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s | %s |\n", k,
				shift(hasBase, hb.Count, hh.Count),
				shift(hasBase, hb.P50, hh.P50),
				shift(hasBase, hb.P90, hh.P90),
				shift(hasBase, hb.P99, hh.P99),
				shift(hasBase, hb.Max, hh.Max))
		}
		b.WriteString("\n")
	}

	if b.Len() == 0 {
		b.WriteString("_Both snapshots empty._\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}
