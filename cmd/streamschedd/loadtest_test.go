package main

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"streamsched/internal/obs"
	"streamsched/internal/server"
)

func loadtestServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	s := server.New(server.Config{CacheBytes: 32 << 20, Metrics: reg})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, reg
}

func TestLoadtestPlan(t *testing.T) {
	ts, reg := loadtestServer(t)
	var out strings.Builder
	err := cmdLoadtest([]string{"-addr", ts.URL, "-n", "400", "-c", "8", "-distinct", "3"}, &out)
	if err != nil {
		t.Fatalf("loadtest: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "errors:       0") {
		t.Fatalf("loadtest reported errors:\n%s", got)
	}
	if !regexp.MustCompile(`throughput:   \d`).MatchString(got) {
		t.Fatalf("no throughput line:\n%s", got)
	}
	snap := reg.Snapshot()
	// Warmup computed each variant once; the measured phase must be all
	// hits (coalesced followers would count as shared, also fine — but
	// with warmup the cache path should serve everything).
	if snap.Counters["server.computations"] != 3 {
		t.Fatalf("computations = %d, want 3 (one per variant)", snap.Counters["server.computations"])
	}
	if snap.Counters["cache.hits"] < 400 {
		t.Fatalf("cache.hits = %d, want >= 400", snap.Counters["cache.hits"])
	}
	// -minrate turns a throughput below it into a failure.
	err = cmdLoadtest([]string{"-addr", ts.URL, "-n", "40", "-c", "2", "-distinct", "3", "-minrate", "1e15"}, &out)
	if err == nil || !strings.Contains(err.Error(), "below required") {
		t.Fatalf("-minrate 1e15: %v", err)
	}
}

func TestLoadtestProfile(t *testing.T) {
	ts, _ := loadtestServer(t)
	var out strings.Builder
	err := cmdLoadtest([]string{"-addr", ts.URL, "-kind", "profile", "-n", "40", "-c", "4",
		"-distinct", "2", "-warm", "32", "-measure", "64"}, &out)
	if err != nil {
		t.Fatalf("loadtest profile: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "errors:       0") {
		t.Fatalf("profile loadtest reported errors:\n%s", out.String())
	}
}

func TestLoadtestBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "nope"},
		{"-n", "0"},
		{"-workload", "nope"},
		{"extra-positional"},
		{"-addr", "https://127.0.0.1:1"},
	} {
		var out strings.Builder
		if err := cmdLoadtest(args, &out); err == nil {
			t.Errorf("loadtest %v succeeded", args)
		}
	}
}
