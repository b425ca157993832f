package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// endToEnd reads the repository's own BENCHMARK.json, so the tests gate
// with the bounds and directions CI gates with.
func endToEnd(t *testing.T) []metric {
	t.Helper()
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []metric `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.EndToEnd) == 0 {
		t.Fatal("BENCHMARK.json declares no end-to-end metrics")
	}
	return decl.EndToEnd
}

// noise is a fixed ±2% wobble per (pair, side): runs of one tree differ,
// but far less than any bound.
var noise = [][2]float64{{1.00, 1.01}, {0.99, 1.02}, {1.02, 0.98}, {0.98, 1.00}, {1.01, 0.99}}

// mkRun builds one run the way pairs.sh writes it and decodes it, so the
// tests read the same bytes the gate does.
func mkRun(t *testing.T, side, workload string, seed int, correct bool, attempted, failed int, metrics map[string]float64) run {
	t.Helper()
	ms := map[string]map[string]any{}
	for name, v := range metrics {
		ms[name] = map[string]any{"value": v, "unit": "ms"}
	}
	result, err := json.Marshal(map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": ms})
	if err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf(`{"side":%q,"workload":%q,"seed":%d,"ran_first":%t,"result":%s}`, side, workload, seed, seed%2 == 1 == (side == "base"), result)
	var r run
	if err := json.Unmarshal([]byte(line), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// pairs builds five pairs of one workload: every metric at 10 on both
// sides times noise, and tweak may change each run before it is built.
func pairs(t *testing.T, metrics []metric, workload string, tweak func(side string, seed int, vals map[string]float64) (correct bool, failed int)) []run {
	var runs []run
	for i, n := range noise {
		for s, side := range []string{"base", "head"} {
			vals := map[string]float64{}
			for _, m := range metrics {
				vals[m.Name] = 10 * n[s]
			}
			correct, failed := true, 0
			if tweak != nil {
				correct, failed = tweak(side, i+1, vals)
			}
			runs = append(runs, mkRun(t, side, workload, i+1, correct, 100, failed, vals))
		}
	}
	return runs
}

func gate(metrics []metric, runs []run) (table string, failures []string, err error) {
	var out strings.Builder
	failures, err = compare(&out, metrics, runs, map[string]*workload{})
	return out.String(), failures, err
}

// TestCompareWithinThresholdPasses is the A/A case: two sides that differ
// only by run-to-run noise pass, every row ok.
func TestCompareWithinThresholdPasses(t *testing.T) {
	metrics := endToEnd(t)
	runs := append(pairs(t, metrics, "orgs-grid", nil), pairs(t, metrics, "daemon-warm", nil)...)
	table, failures, err := gate(metrics, runs)
	if err != nil || len(failures) != 0 {
		t.Fatalf("A/A gate: err %v, failures %v\n%s", err, failures, table)
	}
	if rows := strings.Count(table, "| ok |"); rows != 2*len(metrics) {
		t.Errorf("%d ok rows, want %d:\n%s", rows, 2*len(metrics), table)
	}
}

// TestCompareFailsOnInjectedSlowdown is the gate's own regression test: a
// head 15% slower on one metric fails, naming the workload and the metric,
// and only that row is out of bound.
func TestCompareFailsOnInjectedSlowdown(t *testing.T) {
	metrics := endToEnd(t)
	runs := append(pairs(t, metrics, "hier-shared", nil), pairs(t, metrics, "orgs-grid", func(side string, _ int, vals map[string]float64) (bool, int) {
		if side == "head" {
			vals["op_p50_ms"] *= 1.15
		}
		return true, 0
	})...)
	table, failures, err := gate(metrics, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "orgs-grid: op_p50_ms:") {
		t.Fatalf("15%% slowdown on orgs-grid op_p50_ms: failures %v\n%s", failures, table)
	}
	if !strings.Contains(table, "| orgs-grid | op_p50_ms | 10% |") || strings.Count(table, "OUT OF BOUND") != 1 {
		t.Errorf("table does not mark exactly orgs-grid op_p50_ms out of bound:\n%s", table)
	}
	if !strings.Contains(table, "| 0 of 5 | OUT OF BOUND |") {
		t.Errorf("head won a pair it lost by 15%%:\n%s", table)
	}
}

func TestCompareFailsOnIncorrectRun(t *testing.T) {
	metrics := endToEnd(t)
	runs := pairs(t, metrics, "daemon-cold", func(side string, seed int, _ map[string]float64) (bool, int) {
		return !(side == "base" && seed == 3), 0
	})
	_, failures, err := gate(metrics, runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "daemon-cold: base seed 3: incorrect run") {
		t.Errorf("incorrect base run: failures %v", failures)
	}
}

func TestCompareFailsOnHigherFailedShare(t *testing.T) {
	metrics := endToEnd(t)
	failedOn := func(failing string) func(string, int, map[string]float64) (bool, int) {
		return func(side string, seed int, _ map[string]float64) (bool, int) {
			if side == failing && seed == 2 {
				return true, 1
			}
			return true, 0
		}
	}
	_, failures, err := gate(metrics, pairs(t, metrics, "daemon-warm", failedOn("head")))
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 1 || !strings.Contains(failures[0], "daemon-warm: head failed 1 of 500 ops, base 0 of 500") {
		t.Errorf("higher head failed-op share: failures %v", failures)
	}
	// A base that failed more ops than head is no failure of head's.
	if _, failures, _ := gate(metrics, pairs(t, metrics, "daemon-warm", failedOn("base"))); len(failures) != 0 {
		t.Errorf("lower head failed-op share failed: %v", failures)
	}
}

func TestCompareMissingMetricIsNamedError(t *testing.T) {
	metrics := endToEnd(t)
	runs := pairs(t, metrics, "orgs-grid", func(side string, seed int, vals map[string]float64) (bool, int) {
		if side == "head" && seed == 4 {
			delete(vals, "peak_rss_mb")
		}
		return true, 0
	})
	_, _, err := gate(metrics, runs)
	if err == nil || err.Error() != "orgs-grid: head seed 4 has no peak_rss_mb" {
		t.Errorf("missing metric: err %v", err)
	}
	// A workload with runs on one side only is an error too.
	_, _, err = gate(metrics, pairs(t, metrics, "orgs-grid", nil)[:1])
	if err == nil || !strings.Contains(err.Error(), "orgs-grid: 1 base and 0 head runs") {
		t.Errorf("one-sided workload: err %v", err)
	}
}

// TestCompareWideBaseIQRIsUnresolved: a base whose own quartiles lie
// further apart than the bound cannot tell a regression of that size, so
// the row reads unresolved and the gate does not fail, even though the
// head median is past the bound.
func TestCompareWideBaseIQRIsUnresolved(t *testing.T) {
	metrics := endToEnd(t)
	spread := []float64{0.80, 0.90, 1.00, 1.10, 1.20}
	runs := pairs(t, metrics, "hier-shared", func(side string, seed int, vals map[string]float64) (bool, int) {
		if side == "base" {
			vals["op_p90_ms"] = 10 * spread[seed-1]
		} else {
			vals["op_p90_ms"] *= 1.12
		}
		return true, 0
	})
	table, failures, err := gate(metrics, runs)
	if err != nil || len(failures) != 0 {
		t.Fatalf("wide base IQR: err %v, failures %v\n%s", err, failures, table)
	}
	if !strings.Contains(table, "| hier-shared | op_p90_ms | 10% | 10 | 9 – 11 |") || !strings.Contains(table, "| unresolved |") {
		t.Errorf("row not unresolved:\n%s", table)
	}
}

// TestCompareWideBaseTightPairsResolve: a base as wide as the one above
// cannot judge the medians, but when every pair moves together the
// median pair ratio can: a head 15% worse in every pair is out of bound,
// and one 3% better is ok, both marked as judged by the pairs.
func TestCompareWideBaseTightPairsResolve(t *testing.T) {
	metrics := endToEnd(t)
	spread := []float64{0.80, 0.90, 1.00, 1.10, 1.20}
	for _, tc := range []struct {
		factor  float64
		verdict string
		fails   bool
	}{{1.15, "| 1.161 (1.150 – 1.161) | 0 of 5 | OUT OF BOUND (pairs) |", true}, {0.97, "| 0.980 (0.970 – 0.980) | 5 of 5 | ok (pairs) |", false}} {
		runs := pairs(t, metrics, "daemon-cold", func(side string, seed int, vals map[string]float64) (bool, int) {
			vals["cpu_ms_per_op"] = 10 * spread[seed-1]
			if side == "head" {
				vals["cpu_ms_per_op"] *= tc.factor * (1 + float64(seed%2)/100)
			}
			return true, 0
		})
		table, failures, err := gate(metrics, runs)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(table, "| daemon-cold | cpu_ms_per_op | 10% | 10 | 9 – 11 |") || !strings.Contains(table, tc.verdict) {
			t.Errorf("head ×%.2f: want the row to read %q:\n%s", tc.factor, tc.verdict, table)
		}
		if got := len(failures) == 1 && strings.Contains(failures[0], "daemon-cold: cpu_ms_per_op: median pair ratio 1.161"); got != tc.fails {
			t.Errorf("head ×%.2f: failures %v", tc.factor, failures)
		}
	}
}

// TestRejudgeCommittedSnapshots re-judges every committed BENCH_PR<n>.json
// that lists its verdicts: a row the side medians judged (ok or OUT OF
// BOUND) keeps its verdict, and only a row they left unresolved may be
// judged by its pairs now.
func TestRejudgeCommittedSnapshots(t *testing.T) {
	metrics := endToEnd(t)
	files, err := filepath.Glob("../../BENCH_PR*.json")
	if err != nil {
		t.Fatal(err)
	}
	judged := 0
	for _, f := range files {
		var snap struct {
			Verdicts []struct{ Workload, Metric, Verdict string }
		}
		readJSON(f, &snap)
		if len(snap.Verdicts) == 0 {
			continue
		}
		table, _, err := gate(metrics, readRuns(f))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, v := range snap.Verdicts {
			prefix := fmt.Sprintf("| %s | %s | ", v.Workload, v.Metric)
			i := strings.Index(table, prefix)
			if i < 0 {
				t.Errorf("%s: no row %s %s", f, v.Workload, v.Metric)
				continue
			}
			row := table[i : i+strings.IndexByte(table[i:], '\n')]
			cells := strings.Split(strings.Trim(row, "| "), " | ")
			got := cells[len(cells)-1]
			if v.Verdict != "unresolved" && got != v.Verdict {
				t.Errorf("%s: %s %s was %s, now %s", f, v.Workload, v.Metric, v.Verdict, got)
			}
			if v.Verdict == "unresolved" && got != "unresolved" {
				t.Logf("%s: %s %s: unresolved → %s", filepath.Base(f), v.Workload, v.Metric, got)
			}
			judged++
		}
	}
	if judged == 0 {
		t.Fatal("no committed verdicts found")
	}
}

// TestSnapshotRoundTrip: the -json output lists each workload's runs as
// BENCH_PR<n>.json does: parent and head, each run flat.
func TestSnapshotRoundTrip(t *testing.T) {
	metrics := endToEnd(t)
	ws := map[string]*workload{}
	runs := pairs(t, metrics, "daemon-cold", nil)
	if _, err := compare(&strings.Builder{}, metrics, runs, ws); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(map[string]any{"workloads": ws})
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Workloads map[string]struct {
			Seeds        []int
			Pairs        int
			Parent, Head struct{ Runs []map[string]any }
		}
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	w := got.Workloads["daemon-cold"]
	if fmt.Sprint(w.Seeds) != "[1 2 3 4 5]" || w.Pairs != 5 || len(w.Parent.Runs) != 5 || len(w.Head.Runs) != 5 {
		t.Fatalf("shape: %s", data)
	}
	r := w.Head.Runs[1]
	if r["seed"] != 2.0 || r["ran_first"] != true || r["correct"] != true || r["attempted"] != 100.0 || r["op_p50_ms"] != 10.2 {
		t.Errorf("head seed 2 = %v", r)
	}
}
