package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSessionLifecycle runs a session end to end: registry installed as
// default, metrics snapshot written at Close, previous default restored,
// Close idempotent.
func TestSessionLifecycle(t *testing.T) {
	orig := Default()
	defer SetDefault(orig)
	dir := t.TempDir()
	path := filepath.Join(dir, "metrics.json")
	var log strings.Builder
	s, err := StartSession(SessionConfig{Metrics: path, Verbose: true, Log: &log})
	if err != nil {
		t.Fatal(err)
	}
	if Default() != s.reg || s.reg == nil {
		t.Fatal("session registry not installed as default")
	}
	Default().Counter("trace.accesses").Add(17)
	sp := Default().StartSpan("stage")
	sp.End()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if Default() != orig {
		t.Error("previous default registry not restored")
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if snap.Counters["trace.accesses"] != 17 {
		t.Errorf("snapshot counter: got %d, want 17", snap.Counters["trace.accesses"])
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "stage" {
		t.Errorf("snapshot spans: %+v", snap.Spans)
	}
	if !strings.Contains(log.String(), "stage") {
		t.Errorf("verbose span tree missing: %q", log.String())
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestSessionCSV: a .csv metrics path selects the CSV serialisation.
func TestSessionCSV(t *testing.T) {
	orig := Default()
	defer SetDefault(orig)
	path := filepath.Join(t.TempDir(), "metrics.csv")
	s, err := StartSession(SessionConfig{Metrics: path})
	if err != nil {
		t.Fatal(err)
	}
	Default().Counter("c").Add(1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(raw), "kind,name,value") {
		t.Errorf("CSV header missing: %q", string(raw))
	}
}

// TestSessionInert: an all-zero config observes nothing and leaves the
// default registry alone; nil sessions Close cleanly.
func TestSessionInert(t *testing.T) {
	orig := Default()
	defer SetDefault(orig)
	s, err := StartSession(SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if s.reg != nil {
		t.Error("inert session should have no registry")
	}
	if Default() != orig {
		t.Error("inert session changed the default registry")
	}
	if err := s.Close(); err != nil {
		t.Errorf("inert Close: %v", err)
	}
	var nilSession *Session
	if err := nilSession.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// TestSessionProfiles exercises the pprof and runtime-trace paths so the
// teardown helper is covered end to end.
func TestSessionProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	tr := filepath.Join(dir, "trace.out")
	s, err := StartSession(SessionConfig{CPUProfile: cpu, MemProfile: mem, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little work so the profiles are non-trivial.
	x := 0
	for i := 0; i < 1000; i++ {
		x += i * i
	}
	_ = x
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem, tr} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("%s: empty artifact", p)
		}
	}
}

// TestSessionStartError: a bad artifact path fails fast and leaves no
// profiling running.
func TestSessionStartError(t *testing.T) {
	s, err := StartSession(SessionConfig{CPUProfile: filepath.Join(t.TempDir(), "no", "such", "dir", "cpu")})
	if err == nil {
		s.Close()
		t.Fatal("want error for unwritable cpu profile path")
	}
	if s != nil {
		t.Error("failed StartSession should return a nil session")
	}
	// The failed start must not leave a CPU profile running: starting a
	// fresh one must succeed.
	ok, err := StartSession(SessionConfig{CPUProfile: filepath.Join(t.TempDir(), "cpu")})
	if err != nil {
		t.Fatalf("profiler left running after failed start: %v", err)
	}
	ok.Close()
}
