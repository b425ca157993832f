package obshttp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamsched/internal/obs"
)

func get(t *testing.T, url string) (string, *http.Response) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return string(body), resp
}

// promLine matches one Prometheus text exposition sample line:
// name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? -?\d+$`)

// parseProm validates body as Prometheus text exposition and returns the
// samples as name -> value (label'd series keep their label string in the
// name key).
func parseProm(t *testing.T, body string) map[string]int64 {
	t.Helper()
	samples := map[string]int64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid exposition line: %q", line)
		}
		sp := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[sp+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		samples[line[:sp]] = v
	}
	return samples
}

// TestMetricsEndpointRoundTrip serves a populated registry over httptest
// and parses /metrics back: names sanitised, counters suffixed _total,
// histogram buckets cumulative and consistent with _count.
func TestMetricsEndpointRoundTrip(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("trace.accesses").Add(42)
	r.Gauge("sweep.workers").Set(4)
	h := r.Histogram("sweep.queue.wait")
	h.Record(100)
	h.Record(2000)
	h.Record(2000)
	r.Timer("trace.decode").Observe(5 * time.Microsecond)

	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	body, resp := get(t, srv.URL+"/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type: %q", ct)
	}
	samples := parseProm(t, body)
	if samples["streamsched_trace_accesses_total"] != 42 {
		t.Errorf("counter sample: %v", samples)
	}
	if samples["streamsched_sweep_workers"] != 4 {
		t.Errorf("gauge sample: %v", samples)
	}
	if samples[`streamsched_sweep_queue_wait_bucket{le="+Inf"}`] != 3 ||
		samples["streamsched_sweep_queue_wait_count"] != 3 ||
		samples["streamsched_sweep_queue_wait_sum"] != 4100 {
		t.Errorf("histogram samples: %v", samples)
	}
	// Buckets must be cumulative: the 100 observation lands in le=127, so
	// the le=2047 bucket already includes it.
	if samples[`streamsched_sweep_queue_wait_bucket{le="127"}`] != 1 ||
		samples[`streamsched_sweep_queue_wait_bucket{le="2047"}`] != 3 {
		t.Errorf("cumulative buckets: %v", samples)
	}
	// The timer's sibling histogram carries its totals; no separate timer
	// family is exported.
	if samples["streamsched_trace_decode_count"] != 1 {
		t.Errorf("timer sibling: %v", samples)
	}

	// Determinism: a second scrape of the unchanged registry is identical.
	body2, _ := get(t, srv.URL+"/metrics")
	if body2 != body {
		t.Error("two scrapes of an unchanged registry differ")
	}
}

// TestServeEndpoints binds a real listener on port 0 and walks every
// endpoint, including a JSON round-trip of /metrics.json into Snapshot.
func TestServeEndpoints(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("c").Add(7)
	sp := r.StartSpan("sweep")
	sp.Start("profile").End()
	sp.End()

	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	if body, _ := get(t, base+"/"); !strings.Contains(body, "/metrics") {
		t.Errorf("index body: %q", body)
	}
	jsonBody, resp := get(t, base+"/metrics.json")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("json content type: %q", ct)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(jsonBody), &snap); err != nil {
		t.Fatalf("metrics.json round-trip: %v", err)
	}
	if snap.Counters["c"] != 7 {
		t.Errorf("snapshot over HTTP: %+v", snap.Counters)
	}
	if body, _ := get(t, base+"/spans"); !strings.Contains(body, "sweep") || !strings.Contains(body, "profile") {
		t.Errorf("spans body: %q", body)
	}
	if _, resp := get(t, base+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index: %d", resp.StatusCode)
	}
	if _, resp := get(t, base+"/nope"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: %d", resp.StatusCode)
	}

	if err := s.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

// TestServeNilSafety: nil Server methods no-op, a handler over a nil
// registry serves empty output, and nil-Server calls allocate nothing.
func TestServeNilSafety(t *testing.T) {
	var s *Server
	if s.Addr() != "" {
		t.Error("nil Addr not empty")
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		_ = s.Addr()
		_ = s.Close()
	})
	if allocs != 0 {
		t.Errorf("nil Server allocates: %.1f allocs/op, want 0", allocs)
	}

	srv := httptest.NewServer(Handler(nil))
	defer srv.Close()
	if body, _ := get(t, srv.URL+"/metrics"); body != "" {
		t.Errorf("nil registry /metrics not empty: %q", body)
	}
	if body, _ := get(t, srv.URL+"/metrics.json"); !strings.Contains(body, "{") {
		t.Errorf("nil registry /metrics.json: %q", body)
	}
}

// TestSessionServe: a session given Serve as its hook serves its
// registry for the session's lifetime, and Close shuts the server down.
func TestSessionServe(t *testing.T) {
	var log strings.Builder
	s, err := obs.StartSession(obs.SessionConfig{
		Serve: func(reg *obs.Registry) (io.Closer, error) { return Serve("127.0.0.1:0", reg) },
		Log:   &log,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs.Default().Counter("live").Add(3)
	addr := strings.TrimPrefix(strings.Fields(log.String())[4], "http://")
	body, _ := get(t, "http://"+addr+"/metrics")
	if !strings.Contains(body, "streamsched_live_total 3") {
		t.Errorf("mid-session scrape: %q", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/metrics"); err == nil {
		t.Error("server still reachable after session Close")
	}
}
