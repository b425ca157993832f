// Command benchdiff gates paired bench/run.sh runs (files from pairs.sh,
// or a committed BENCH_PR<n>.json, whose runs it re-judges) against
// ./BENCHMARK.json. Per (workload, end-to-end metric) a head median worse
// than the base median by more than the bound fails (OUT OF BOUND). Where
// the base IQR is wider than the bound, the row is judged by its median
// per-pair ratio (head over base, same seed) if at least minPairs ratios
// lie within the bound of each other, and is unresolved otherwise. An
// incorrect run or a higher head failed-op share fails. Exit 1: failed;
// 2: bad input.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// run is one tagged result line.
type run struct {
	Side     string `json:"side"` // base or head
	Workload string `json:"workload"`
	Seed     int    `json:"seed"`
	RanFirst bool   `json:"ran_first"`
	Result   result `json:"result"`
}

// result is the benchmark's own result line.
type result struct {
	Correct           bool `json:"correct"`
	Attempted, Failed int
	Metrics           map[string]struct{ Value float64 } `json:"metrics"`
}

// MarshalJSON flattens a run the way BENCH_PR<n>.json lists it.
func (r run) MarshalJSON() ([]byte, error) {
	flat := map[string]any{"attempted": r.Result.Attempted, "failed": r.Result.Failed, "correct": r.Result.Correct, "seed": r.Seed, "ran_first": r.RanFirst}
	for name, m := range r.Result.Metrics {
		flat[name] = math.Round(m.Value*1000) / 1000
	}
	return json.Marshal(flat)
}

// workload is one workload's runs, shaped as in BENCH_PR<n>.json.
type workload struct {
	Seeds  []int `json:"seeds"`
	Pairs  int   `json:"pairs"`
	Parent side  `json:"parent"`
	Head   side  `json:"head"`
}

type side struct {
	Runs              []run `json:"runs"`
	failed, attempted int
}

// minPairs is the fewest same-seed pairs whose ratios may judge a row the
// side medians cannot: the batch pairs.sh adds at once.
const minPairs = 5

type metric struct {
	Name, Better string
	Bound        float64
}

func main() {
	jsonOut := flag.String("json", "", "write the runs here, per workload, as parent and head")
	flag.Parse()
	var decl struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	readJSON("BENCHMARK.json", &decl)
	if flag.NArg() == 0 {
		check("", fmt.Errorf("no run files"))
	}
	var runs []run
	for _, f := range flag.Args() {
		runs = append(runs, readRuns(f)...)
	}
	ws := map[string]*workload{}
	failures, err := compare(os.Stdout, decl.EndToEnd, runs, ws)
	check("", err)
	if *jsonOut != "" {
		data, err := json.MarshalIndent(map[string]any{"workloads": ws}, "", " ")
		check("", err)
		check("", os.WriteFile(*jsonOut, append(data, '\n'), 0o644))
	}
	for _, f := range failures {
		fmt.Printf("\nFAIL %s\n", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
}

// compare groups the runs into ws, prints the verdict table and returns
// the gate's failures. A workload without both sides, and a run without an
// end-to-end metric, are errors.
func compare(out io.Writer, metrics []metric, runs []run, ws map[string]*workload) (failures []string, err error) {
	var names []string
	for _, r := range runs {
		if ws[r.Workload] == nil {
			ws[r.Workload], names = &workload{}, append(names, r.Workload)
		}
		w := ws[r.Workload]
		s := map[string]*side{"base": &w.Parent, "head": &w.Head}[r.Side]
		if s == nil {
			return nil, fmt.Errorf("%s seed %d: side %q, want base or head", r.Workload, r.Seed, r.Side)
		}
		s.Runs, s.failed, s.attempted = append(s.Runs, r), s.failed+r.Result.Failed, s.attempted+r.Result.Attempted
		if !r.Result.Correct {
			failures = append(failures, fmt.Sprintf("%s: %s seed %d: incorrect run", r.Workload, r.Side, r.Seed))
		}
	}
	slices.Sort(names)
	fmt.Fprint(out, "| workload | metric | bound | base median | base q1 – q3 | head median | change | pair ratio (q1 – q3) | head won | verdict |\n| --- | --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: | --- |\n")
	for _, name := range names {
		w := ws[name]
		b, h := w.Parent, w.Head
		if len(b.Runs) == 0 || len(h.Runs) == 0 {
			return nil, fmt.Errorf("%s: %d base and %d head runs, want both sides", name, len(b.Runs), len(h.Runs))
		}
		if h.failed*max(b.attempted, 1) > b.failed*max(h.attempted, 1) {
			failures = append(failures, fmt.Sprintf("%s: head failed %d of %d ops, base %d of %d", name, h.failed, h.attempted, b.failed, b.attempted))
		}
		for _, r := range b.Runs {
			w.Seeds = append(w.Seeds, r.Seed)
		}
		w.Pairs = min(len(b.Runs), len(h.Runs))
		for _, m := range metrics {
			sign, ok := map[string]float64{"lower": 1, "higher": -1}[m.Better]
			if !ok {
				return nil, fmt.Errorf("%s: better is %q, want lower or higher", m.Name, m.Better)
			}
			bySeed, bv, hv, ratios, won := map[int]float64{}, []float64{}, []float64{}, []float64{}, 0
			for _, r := range append(append([]run(nil), b.Runs...), h.Runs...) {
				v, ok := r.Result.Metrics[m.Name]
				if !ok {
					return nil, fmt.Errorf("%s: %s seed %d has no %s", name, r.Side, r.Seed, m.Name)
				}
				if r.Side == "base" {
					bv, bySeed[r.Seed] = append(bv, v.Value), v.Value
					continue
				}
				hv = append(hv, v.Value)
				if bs, ok := bySeed[r.Seed]; ok {
					if sign*(v.Value-bs) < 0 {
						won++
					}
					if bs != 0 {
						ratios = append(ratios, v.Value/bs)
					}
				}
			}
			bm, q1, q3, hm := quantile(bv, .5), quantile(bv, .25), quantile(bv, .75), quantile(hv, .5)
			paired := "–"
			var rm, rq1, rq3 float64
			if len(ratios) > 0 {
				rm, rq1, rq3 = quantile(ratios, .5), quantile(ratios, .25), quantile(ratios, .75)
				paired = fmt.Sprintf("%.3f (%.3f – %.3f)", rm, rq1, rq3)
			}
			verdict := "ok"
			switch {
			case (q3-q1)/bm <= m.Bound:
				if worse := sign * (hm/bm - 1); worse > m.Bound {
					verdict = "OUT OF BOUND"
					failures = append(failures, fmt.Sprintf("%s: %s: head median %.4g is %.1f%% worse than base %.4g, bound %.0f%%", name, m.Name, hm, 100*worse, bm, 100*m.Bound))
				}
			case len(ratios) >= minPairs && (rq3-rq1)/rm <= m.Bound:
				verdict = "ok (pairs)"
				if worse := sign * (rm - 1); worse > m.Bound {
					verdict = "OUT OF BOUND (pairs)"
					failures = append(failures, fmt.Sprintf("%s: %s: median pair ratio %.3f (q1 – q3 %.3f – %.3f) is %.1f%% worse, bound %.0f%%; the base IQR is too wide to judge the medians", name, m.Name, rm, rq1, rq3, 100*worse, 100*m.Bound))
				}
			default:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "| %s | %s | %.0f%% | %.4g | %.4g – %.4g | %.4g | %+.1f%% | %s | %d of %d | %s |\n", name, m.Name, 100*m.Bound, bm, q1, q3, hm, 100*(hm/bm-1), paired, won, w.Pairs, verdict)
		}
	}
	return failures, nil
}

// quantile interpolates linearly between sorted values, as bench/kit does.
func quantile(vs []float64, q float64) float64 {
	s := slices.Sorted(slices.Values(vs))
	pos := q * float64(len(s)-1)
	lo := int(pos)
	return s[lo] + (s[min(lo+1, len(s)-1)]-s[lo])*(pos-float64(lo))
}

// readRuns reads one pairs.sh run file, or every run of a committed
// BENCH_PR<n>.json snapshot: the shape -json writes, per workload parent
// and head runs, each with its metrics flattened beside seed, ran_first,
// correct, attempted and failed.
func readRuns(path string) []run {
	var snap struct {
		Workloads map[string]struct {
			Parent, Head struct{ Runs []json.RawMessage }
		}
	}
	readJSON(path, &snap)
	if snap.Workloads == nil {
		var r run
		readJSON(path, &r)
		return []run{r}
	}
	var runs []run
	for name, w := range snap.Workloads {
		for side, flats := range map[string][]json.RawMessage{"base": w.Parent.Runs, "head": w.Head.Runs} {
			for _, flat := range flats {
				r := run{Side: side, Workload: name, Result: result{Metrics: map[string]struct{ Value float64 }{}}}
				var fields map[string]any
				err := json.Unmarshal(flat, &struct {
					Seed     *int
					RanFirst *bool `json:"ran_first"`
					*result
				}{&r.Seed, &r.RanFirst, &r.Result})
				if err == nil {
					err = json.Unmarshal(flat, &fields)
				}
				check(path+": ", err)
				for k, v := range fields {
					if f, ok := v.(float64); ok && !slices.Contains([]string{"seed", "attempted", "failed"}, k) {
						r.Result.Metrics[k] = struct{ Value float64 }{f}
					}
				}
				runs = append(runs, r)
			}
		}
	}
	return runs
}

func readJSON(path string, v any) {
	data, err := os.ReadFile(path)
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	check(path+": ", err)
}

func check(what string, err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %s%v\n", what, err)
		os.Exit(2)
	}
}
