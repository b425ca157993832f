package obs

import (
	"encoding/json"
	"errors"
	"io"
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

// fakeServer stands in for obshttp.Server behind SessionConfig.Serve.
type fakeServer struct {
	reg    *Registry
	closed int
	err    error
}

func (f *fakeServer) Addr() string { return "127.0.0.1:9190" }

func (f *fakeServer) Close() error { f.closed++; return f.err }

// TestSessionListen: a session with a Serve hook arms a registry, hands
// it to the hook, prints where it serves, and closes what the hook
// returned exactly once; a failed hook fails the start and leaves the
// default registry as it was.
func TestSessionListen(t *testing.T) {
	orig := Default()
	defer SetDefault(orig)
	srv := &fakeServer{err: errors.New("boom")}
	var log strings.Builder
	s, err := StartSession(SessionConfig{
		Serve: func(reg *Registry) (io.Closer, error) { srv.reg = reg; return srv, nil },
		Log:   &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.reg == nil || srv.reg != s.reg || Default() != s.reg {
		t.Fatal("Serve did not get the session's armed default registry")
	}
	if want := "obs: serving introspection on http://127.0.0.1:9190 "; !strings.HasPrefix(log.String(), want) {
		t.Errorf("log %q, want prefix %q", log.String(), want)
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "obs: listen: boom") {
		t.Errorf("Close: %v, want the server's close error", err)
	}
	s.Close()
	if srv.closed != 1 || Default() != orig {
		t.Errorf("server closed %d times, default restored %v", srv.closed, Default() == orig)
	}

	failed, err := StartSession(SessionConfig{Serve: func(*Registry) (io.Closer, error) { return nil, errors.New("no port") }})
	if err == nil || failed != nil || Default() != orig {
		t.Errorf("failed Serve: session %v, err %v, default restored %v", failed, err, Default() == orig)
	}
}
