package main

import (
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: streamsched
cpu: Intel(R) Xeon(R) Processor
BenchmarkE1PipelineVsM-8        	       3	 41000000 ns/op
BenchmarkE1PipelineVsM-8        	       3	 40000000 ns/op
BenchmarkE1PipelineVsM-8        	       3	 42000000 ns/op
BenchmarkFullyAssociativeAccess-8	 1000000	      35.5 ns/op	       0 B/op
PASS
ok  	streamsched	1.234s
pkg: streamsched/internal/trace
BenchmarkProfileOrgs-8          	       3	300000000 ns/op
PASS
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"BenchmarkE1PipelineVsM":          40000000, // min across -count runs
		"BenchmarkFullyAssociativeAccess": 35.5,
		"BenchmarkProfileOrgs":            300000000,
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d benchmarks, want %d: %v", len(got), len(want), got)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200}
	cur := map[string]float64{"BenchmarkA": 120, "BenchmarkB": 190}
	regressions, notes := compare(base, cur, 0.25)
	if len(regressions) != 0 {
		t.Errorf("unexpected regressions: %v", regressions)
	}
	var out, errOut strings.Builder
	if code := reportComparison(&out, &errOut, regressions, notes, 0.25, 2); code != 0 {
		t.Errorf("clean comparison exit code = %d, want 0", code)
	}
	if !strings.Contains(out.String(), "no regressions beyond 25% across 2 tracked benchmarks") {
		t.Errorf("clean comparison output:\n%s", out.String())
	}
}

// TestCompareFailsOnInjectedSlowdown is the gate's own regression test:
// inflate one benchmark past the threshold and the comparison must fail.
func TestCompareFailsOnInjectedSlowdown(t *testing.T) {
	base := map[string]float64{"BenchmarkA": 100, "BenchmarkB": 200}
	cur := map[string]float64{"BenchmarkA": 100 * 1.30, "BenchmarkB": 200}
	regressions, _ := compare(base, cur, 0.25)
	if len(regressions) != 1 || !strings.Contains(regressions[0], "BenchmarkA") {
		t.Fatalf("injected 30%% slowdown not caught: %v", regressions)
	}
	var out, errOut strings.Builder
	if code := reportComparison(&out, &errOut, regressions, nil, 0.25, 2); code != 1 {
		t.Errorf("regression exit code = %d, want 1", code)
	}
	if !strings.Contains(errOut.String(), "regressed more than 25%") {
		t.Errorf("regression output missing failure report:\n%s", errOut.String())
	}
	// Exactly at the threshold is allowed; just past it is not.
	cur["BenchmarkA"] = 125
	if r, _ := compare(base, cur, 0.25); len(r) != 0 {
		t.Errorf("25%% slowdown at threshold rejected: %v", r)
	}
}

func TestCompareNotesNewAndGone(t *testing.T) {
	base := map[string]float64{"BenchmarkOld": 100}
	cur := map[string]float64{"BenchmarkNew": 50}
	regressions, notes := compare(base, cur, 0.25)
	if len(regressions) != 0 {
		t.Errorf("new/gone treated as regression: %v", regressions)
	}
	joined := strings.Join(notes, "\n")
	if !strings.Contains(joined, "NEW    BenchmarkNew") || !strings.Contains(joined, "GONE   BenchmarkOld") {
		t.Errorf("notes missing NEW/GONE: %v", notes)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.json")
	want := map[string]float64{"BenchmarkA": 123.5, "BenchmarkB": 9}
	if err := writeSnapshot(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := readSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || got["BenchmarkA"] != 123.5 || got["BenchmarkB"] != 9 {
		t.Errorf("round trip = %v, want %v", got, want)
	}
}
