// Command benchdiff turns `go test -bench` output into a JSON benchmark
// snapshot (benchmark name -> ns/op) and gates performance regressions
// between two snapshots. It is the reproducible core of the CI
// bench-regression job — the base commit and the head commit benchmarked
// back to back on one runner and diffed — and works identically locally:
//
//	go test -run '^$' -bench . -benchtime 3x -count 3 ./... | \
//	    go run ./cmd/benchdiff -out BENCH_HEAD.json -baseline BENCH_BASE.json
//
// With -count N the minimum ns/op across repetitions is kept — the
// least-noise estimator for a gate.
//
// The gate fails (exit 1) if any benchmark present in both the snapshot
// and the baseline is more than -max-regress slower than the baseline.
// New benchmarks are reported but do not fail; benchmarks that vanished
// from the snapshot are warned about.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	in := flag.String("in", "-", "bench output to parse (- for stdin)")
	out := flag.String("out", "", "write the parsed snapshot JSON here")
	baseline := flag.String("baseline", "", "baseline JSON to gate against")
	maxRegress := flag.Float64("max-regress", 0.25, "allowed fractional slowdown per benchmark")
	flag.Parse()

	if *out == "" && *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: nothing to do: pass -out and/or -baseline")
		os.Exit(2)
	}
	r := io.Reader(os.Stdin)
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		r = f
	}
	cur, err := parseBench(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	if len(cur) == 0 {
		fmt.Fprintln(os.Stderr, "benchdiff: no benchmark results in input")
		os.Exit(2)
	}
	if *out != "" {
		if err := writeSnapshot(*out, cur); err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %d benchmarks to %s\n", len(cur), *out)
	}
	if *baseline == "" {
		return
	}
	base, err := readSnapshot(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(2)
	}
	regressions, notes := compare(base, cur, *maxRegress)
	os.Exit(reportComparison(os.Stdout, os.Stderr, regressions, notes, *maxRegress, len(cur)))
}

// reportComparison prints the comparison's findings and returns the
// process exit code: 1 on regressions, 0 otherwise.
func reportComparison(out, errOut io.Writer, regressions, notes []string, maxRegress float64, tracked int) int {
	for _, n := range notes {
		fmt.Fprintln(out, n)
	}
	if len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(errOut, r)
		}
		fmt.Fprintf(errOut, "benchdiff: %d benchmark(s) regressed more than %.0f%%\n",
			len(regressions), maxRegress*100)
		return 1
	}
	fmt.Fprintf(out, "no regressions beyond %.0f%% across %d tracked benchmarks\n",
		maxRegress*100, tracked)
	return 0
}

// parseBench extracts ns/op per benchmark from `go test -bench` output.
// Repeated runs of the same benchmark (from -count) keep the minimum.
// The -N GOMAXPROCS suffix is stripped so snapshots compare across
// machines with different core counts.
func parseBench(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// Find "ns/op" and take the number before it.
		for i := 2; i < len(fields); i++ {
			if fields[i] != "ns/op" {
				continue
			}
			v, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				return nil, fmt.Errorf("bad ns/op for %s: %q", name, fields[i-1])
			}
			if old, ok := out[name]; !ok || v < old {
				out[name] = v
			}
			break
		}
	}
	return out, sc.Err()
}

// compare gates cur against base: a benchmark present in both regresses
// when cur > base*(1+maxRegress). Returns the failures and informational
// notes (new/vanished benchmarks, improvements).
func compare(base, cur map[string]float64, maxRegress float64) (regressions, notes []string) {
	names := make([]string, 0, len(cur))
	for name := range cur {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := cur[name]
		b, ok := base[name]
		if !ok {
			notes = append(notes, fmt.Sprintf("NEW    %s: %.0f ns/op (not in baseline)", name, c))
			continue
		}
		ratio := 0.0
		if b > 0 {
			ratio = c/b - 1
		}
		switch {
		case c > b*(1+maxRegress):
			regressions = append(regressions,
				fmt.Sprintf("REGRESS %s: %.0f ns/op vs baseline %.0f (%+.0f%%)", name, c, b, ratio*100))
		case ratio < -maxRegress:
			notes = append(notes, fmt.Sprintf("FASTER %s: %.0f ns/op vs baseline %.0f (%+.0f%%)", name, c, b, ratio*100))
		}
	}
	baseNames := make([]string, 0, len(base))
	for name := range base {
		baseNames = append(baseNames, name)
	}
	sort.Strings(baseNames)
	for _, name := range baseNames {
		if _, ok := cur[name]; !ok {
			notes = append(notes, fmt.Sprintf("GONE   %s: in baseline but not in this run", name))
		}
	}
	return regressions, notes
}

func writeSnapshot(path string, snap map[string]float64) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readSnapshot(path string) (map[string]float64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap map[string]float64
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snap, nil
}
