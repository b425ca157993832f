package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestEveryExperimentRuns executes the complete registry in quick mode
// with captured output — the end-to-end integration test of the whole
// repository (graphs, partitioners, schedulers, simulator, bounds,
// parallel extension).
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("integration experiments skipped in -short mode")
	}
	for _, e := range registry {
		e := e
		t.Run(e.id, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := runConfig{full: false, seed: 1, out: &buf}
			if err := e.run(cfg); err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
			out := buf.String()
			if !strings.Contains(out, e.id+":") {
				t.Errorf("%s output missing its header:\n%s", e.id, out)
			}
			if len(strings.Split(out, "\n")) < 4 {
				t.Errorf("%s output suspiciously short:\n%s", e.id, out)
			}
		})
	}
}

func TestRegistryComplete(t *testing.T) {
	want := map[string]bool{}
	for i := 1; i <= 22; i++ {
		if i == 14 {
			continue // E14 is the real-memory benchmark in bench_test.go
		}
		want[expID(i)] = false
	}
	for _, e := range registry {
		if _, ok := want[e.id]; !ok {
			t.Errorf("unexpected experiment %s", e.id)
			continue
		}
		want[e.id] = true
	}
	for id, seen := range want {
		if !seen {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func expID(i int) string { return fmt.Sprintf("E%d", i) }

// TestE20Harness pins the new hierarchy experiment's harness integration:
// it is registered (so -list shows it), selectable as "-run e20", sorts
// after E19, and runs correctly under the -jobs parallel mode with its
// output buffered and attributed.
func TestE20Harness(t *testing.T) {
	selected, err := selectExperiments("e20")
	if err != nil || len(selected) != 1 || selected[0].id != "E20" {
		t.Fatalf("selectExperiments(e20) = %v, %v; want the E20 experiment", selected, err)
	}
	if !strings.Contains(selected[0].title, "hierarch") {
		t.Errorf("E20 title %q does not mention hierarchies", selected[0].title)
	}
	if experimentOrder("E19") >= experimentOrder("E20") {
		t.Error("E20 should sort after E19")
	}
	if testing.Short() {
		t.Skip("running E20 itself skipped in -short mode")
	}
	var buf bytes.Buffer
	if failed := runExperiments(selected, runConfig{seed: 1}, 2, &buf); failed != 0 {
		t.Fatalf("E20 failed under -jobs 2:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"=== E20", "cross-validation vs two-level simulator", "exact match at every point"} {
		if !strings.Contains(out, want) {
			t.Errorf("parallel-mode E20 output missing %q:\n%s", want, out)
		}
	}
}

// TestE21Harness pins the shared-L2 experiment's harness integration:
// registered, selectable, sorted after E20, and correct under -jobs with
// its exact cross-validation reported.
func TestE21Harness(t *testing.T) {
	selected, err := selectExperiments("e21")
	if err != nil || len(selected) != 1 || selected[0].id != "E21" {
		t.Fatalf("selectExperiments(e21) = %v, %v; want the E21 experiment", selected, err)
	}
	if !strings.Contains(selected[0].title, "shared-L2") {
		t.Errorf("E21 title %q does not mention the shared L2", selected[0].title)
	}
	if experimentOrder("E20") >= experimentOrder("E21") {
		t.Error("E21 should sort after E20")
	}
	if testing.Short() {
		t.Skip("running E21 itself skipped in -short mode")
	}
	var buf bytes.Buffer
	if failed := runExperiments(selected, runConfig{seed: 1}, 2, &buf); failed != 0 {
		t.Fatalf("E21 failed under -jobs 2:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"=== E21", "cross-validation vs shared-L2 simulator", "exact match at every point"} {
		if !strings.Contains(out, want) {
			t.Errorf("parallel-mode E21 output missing %q:\n%s", want, out)
		}
	}
}

// TestE22Harness pins the instrumentation experiment's harness
// integration: registered, selectable, sorted after E21, and exact under
// -jobs 1 (a private registry; the counter cross-check must hold).
func TestE22Harness(t *testing.T) {
	selected, err := selectExperiments("e22")
	if err != nil || len(selected) != 1 || selected[0].id != "E22" {
		t.Fatalf("selectExperiments(e22) = %v, %v; want the E22 experiment", selected, err)
	}
	if !strings.Contains(selected[0].title, "instrumentation") {
		t.Errorf("E22 title %q does not mention instrumentation", selected[0].title)
	}
	if experimentOrder("E21") >= experimentOrder("E22") {
		t.Error("E22 should sort after E21")
	}
	if testing.Short() {
		t.Skip("running E22 itself skipped in -short mode")
	}
	var buf bytes.Buffer
	if failed := runExperiments(selected, runConfig{seed: 1}, 1, &buf); failed != 0 {
		t.Fatalf("E22 failed:\n%s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"=== E22", "exact match on every schedule and counter", "replay (bare ForEach)"} {
		if !strings.Contains(out, want) {
			t.Errorf("E22 output missing %q:\n%s", want, out)
		}
	}
}

func TestExperimentOrder(t *testing.T) {
	if experimentOrder("E2") >= experimentOrder("E10") {
		t.Error("E2 should sort before E10")
	}
	if experimentOrder("E15") != 15 {
		t.Errorf("order(E15) = %d", experimentOrder("E15"))
	}
}

// withFakeExperiments temporarily replaces the registry so harness tests
// don't run (and don't depend on) the real experiments.
func withFakeExperiments(t *testing.T, exps []experiment, fn func()) {
	t.Helper()
	old := registry
	registry = exps
	defer func() { registry = old }()
	fn()
}

var errBoom = errors.New("boom")

func fakeExperiment(id string, fail bool) experiment {
	return experiment{id: id, title: "fake " + id, run: func(cfg runConfig) error {
		fmt.Fprintf(cfg.out, "%s: body\n", id)
		if fail {
			return errBoom
		}
		return nil
	}}
}

// TestSelectExperiments pins the -run semantics: empty and "all" select
// the whole registry (the historical bug: "-run all" matched nothing and
// the process exited 0 having run zero experiments), ids are
// case-insensitive, and unknown ids are an error rather than silently
// running nothing.
func TestSelectExperiments(t *testing.T) {
	withFakeExperiments(t, []experiment{
		fakeExperiment("E1", false), fakeExperiment("E2", false),
	}, func() {
		for _, runList := range []string{"", "all", "ALL", " all "} {
			got, err := selectExperiments(runList)
			if err != nil || len(got) != 2 {
				t.Errorf("selectExperiments(%q) = %d exps, %v; want 2", runList, len(got), err)
			}
		}
		got, err := selectExperiments("e2")
		if err != nil || len(got) != 1 || got[0].id != "E2" {
			t.Errorf("selectExperiments(e2) = %v, %v", got, err)
		}
		if _, err := selectExperiments("E1,E99"); err == nil {
			t.Error("unknown experiment id accepted")
		}
	})
}

// TestRunExperimentsPropagatesFailure is the regression test for the
// exit-code bug: a failing experiment must be counted (main exits
// non-zero), in both sequential and parallel modes, and its error must
// appear in the harness output.
func TestRunExperimentsPropagatesFailure(t *testing.T) {
	exps := []experiment{
		fakeExperiment("E1", false),
		fakeExperiment("E2", true),
		fakeExperiment("E3", false),
	}
	withFakeExperiments(t, exps, func() {
		for _, jobs := range []int{1, 3} {
			var buf bytes.Buffer
			failed := runExperiments(registry, runConfig{seed: 1}, jobs, &buf)
			if failed != 1 {
				t.Errorf("jobs=%d: failed = %d, want 1", jobs, failed)
			}
			out := buf.String()
			if !strings.Contains(out, "E2 failed: boom") {
				t.Errorf("jobs=%d: output missing failure report:\n%s", jobs, out)
			}
			// Output must appear in registry order even when parallel.
			i1, i2, i3 := strings.Index(out, "=== E1"), strings.Index(out, "=== E2"), strings.Index(out, "=== E3")
			if i1 < 0 || i2 < 0 || i3 < 0 || !(i1 < i2 && i2 < i3) {
				t.Errorf("jobs=%d: output out of order (%d, %d, %d):\n%s", jobs, i1, i2, i3, out)
			}
		}
	})
}
