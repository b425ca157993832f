package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"streamsched/internal/jsonscan/jsonscantest"
	"streamsched/internal/obs"
	"streamsched/internal/randgraph"
	"streamsched/internal/schedule"
	"streamsched/workloads"
)

// testGraphJSON returns an interchange-format graph payload.
func testGraphJSON(t testing.TB, scale int64) []byte {
	t.Helper()
	g, err := workloads.FMRadio(4, scale)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	if cfg.Metrics == nil {
		cfg.Metrics = reg
	} else {
		reg = cfg.Metrics
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = 64 << 20
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, reg
}

func post(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func planBody(t testing.TB, graph []byte, extra string) []byte {
	t.Helper()
	return []byte(fmt.Sprintf(`{"graph": %s, "m": 512%s}`, graph, extra))
}

func TestPlanEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/plan", planBody(t, testGraphJSON(t, 64), ""))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Streamsched-Cache"); got != "miss" {
		t.Fatalf("first request cache header = %q, want miss", got)
	}
	var pr PlanResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("bad response json: %v\n%s", err, body)
	}
	if pr.Engine != EngineVersion || pr.Graph == "" || len(pr.Caps) == 0 || pr.BufferWords <= 0 {
		t.Fatalf("implausible plan response: %+v", pr)
	}
	if pr.Key != resp.Header.Get("X-Streamsched-Key") {
		t.Fatal("body key and header key disagree")
	}
	// Second identical request: a hit, byte-identical.
	resp2, body2 := post(t, ts.URL+"/v1/plan", planBody(t, testGraphJSON(t, 64), ""))
	if got := resp2.Header.Get("X-Streamsched-Cache"); got != "hit" {
		t.Fatalf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cached body differs from computed body")
	}
}

// TestCachedEqualsFresh pins the acceptance criterion: a cached result is
// byte-identical to a fresh computation on a brand-new server (fresh
// schedule.Env machinery, empty cache).
func TestCachedEqualsFresh(t *testing.T) {
	for _, ep := range []string{"/v1/plan", "/v1/profile"} {
		_, tsA, _ := newTestServer(t, Config{})
		_, tsB, _ := newTestServer(t, Config{})
		req := planBody(t, testGraphJSON(t, 32), `, "measure": 256, "warm": 64, "caps": [256, 1024, 4096]`)
		if ep == "/v1/plan" {
			req = planBody(t, testGraphJSON(t, 32), "")
		}
		respA1, bodyA1 := post(t, tsA.URL+ep, req)
		if respA1.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", ep, respA1.StatusCode, bodyA1)
		}
		_, bodyA2 := post(t, tsA.URL+ep, req) // cached
		respB, bodyB := post(t, tsB.URL+ep, req)
		if respB.Header.Get("X-Streamsched-Cache") != "miss" {
			t.Fatalf("%s: fresh server reported a hit", ep)
		}
		if !bytes.Equal(bodyA1, bodyA2) {
			t.Fatalf("%s: cached body differs from its own computation", ep)
		}
		if !bytes.Equal(bodyA2, bodyB) {
			t.Fatalf("%s: cached body differs from a fresh server's computation:\n%s\nvs\n%s", ep, bodyA2, bodyB)
		}
	}
}

// TestKeyStableAcrossFieldOrder: reordering JSON fields (of both the
// request envelope and the graph object) and writing defaults explicitly
// must address the same cache entry.
func TestKeyStableAcrossFieldOrder(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	a := []byte(`{"graph": {"name": "g", "nodes": [{"name": "s", "state": 8}, {"name": "t", "state": 4}], "edges": [{"from": 0, "to": 1, "out": 1, "in": 1}]}, "m": 256}`)
	b := []byte(`{"m": 256, "scale": 4, "scheduler": "partitioned", "b": 16, "graph": {"edges": [{"in": 1, "out": 1, "to": 1, "from": 0}], "nodes": [{"state": 8, "name": "s"}, {"state": 4, "name": "t"}], "name": "g"}}`)
	respA, bodyA := post(t, ts.URL+"/v1/plan", a)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", respA.StatusCode, bodyA)
	}
	respB, bodyB := post(t, ts.URL+"/v1/plan", b)
	if got := respB.Header.Get("X-Streamsched-Cache"); got != "hit" {
		t.Fatalf("reordered request missed the cache (header %q)", got)
	}
	if respA.Header.Get("X-Streamsched-Key") != respB.Header.Get("X-Streamsched-Key") {
		t.Fatal("reordered request hashed to a different key")
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatal("reordered request served different bytes")
	}
	// A semantic change (node state) must change the key.
	c := []byte(`{"graph": {"name": "g", "nodes": [{"name": "s", "state": 9}, {"name": "t", "state": 4}], "edges": [{"from": 0, "to": 1, "out": 1, "in": 1}]}, "m": 256}`)
	respC, _ := post(t, ts.URL+"/v1/plan", c)
	if respC.Header.Get("X-Streamsched-Key") == respA.Header.Get("X-Streamsched-Key") {
		t.Fatal("semantically different graphs share a key")
	}
}

// TestFastPathMemo: a byte-identical repeat is served through the
// raw-body memo; an equivalent-but-reordered body takes the slow path to
// the same cache entry.
func TestFastPathMemo(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	a := []byte(`{"graph": {"name": "g", "nodes": [{"name": "s", "state": 8}], "edges": []}, "m": 256}`)
	b := []byte(`{"m": 256, "graph": {"name": "g", "nodes": [{"name": "s", "state": 8}], "edges": []}}`)
	post(t, ts.URL+"/v1/plan", a)
	if got := reg.Counter("server.fastpath.hits").Value(); got != 0 {
		t.Fatalf("fastpath.hits after first request = %d, want 0", got)
	}
	resp2, _ := post(t, ts.URL+"/v1/plan", a)
	if resp2.Header.Get("X-Streamsched-Cache") != "hit" {
		t.Fatal("identical repeat missed")
	}
	if got := reg.Counter("server.fastpath.hits").Value(); got != 1 {
		t.Fatalf("fastpath.hits after identical repeat = %d, want 1", got)
	}
	resp3, _ := post(t, ts.URL+"/v1/plan", b)
	if resp3.Header.Get("X-Streamsched-Cache") != "hit" {
		t.Fatal("reordered equivalent missed")
	}
	if got := reg.Counter("server.fastpath.hits").Value(); got != 1 {
		t.Fatalf("fastpath.hits after reordered body = %d, want 1 (slow path expected)", got)
	}
	// The reordered body is memoised too: its repeat is a fastpath hit.
	post(t, ts.URL+"/v1/plan", b)
	if got := reg.Counter("server.fastpath.hits").Value(); got != 2 {
		t.Fatalf("fastpath.hits after reordered repeat = %d, want 2", got)
	}
}

// TestSingleFlight is the exact coalescing check: N identical concurrent
// profile requests cause exactly one computation.
func TestSingleFlight(t *testing.T) {
	const clients = 24
	_, ts, reg := newTestServer(t, Config{Jobs: 4})
	// A moderately expensive profile so followers genuinely overlap the
	// leader's computation.
	req := planBody(t, testGraphJSON(t, 64), `, "measure": 2048, "warm": 512`)
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, clients)
	bodies := make([][]byte, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resp, err := http.Post(ts.URL+"/v1/profile", "application/json", bytes.NewReader(req))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			bodies[i] = body
		}(i)
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := reg.Counter("server.computations").Value(); got != 1 {
		t.Fatalf("server.computations = %d, want exactly 1", got)
	}
	snap := reg.Snapshot()
	hits := snap.Counters["cache.hits"]
	sharedN := snap.Counters["server.singleflight.shared"]
	if hits+sharedN != clients-1 {
		t.Fatalf("hits (%d) + shared (%d) = %d, want %d", hits, sharedN, hits+sharedN, clients-1)
	}
	if got := snap.Gauges["server.inflight"]; got != 0 {
		t.Fatalf("server.inflight = %d after every request returned, want 0", got)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
}

// TestAdmissionBound: with the worker pool held, admitPerJob·jobs
// distinct computations are admitted and queue; one more never-seen
// request is answered 429 busy at once and computes nothing, while a
// request joining an admitted flight is not refused. Once the pool frees,
// every admitted request answers 200 and the refused one computes on its
// retry.
func TestAdmissionBound(t *testing.T) {
	const jobs = 1
	srv, ts, reg := newTestServer(t, Config{Jobs: jobs})
	body := func(i int) []byte {
		return planBody(t, testGraphJSON(t, int64(16+16*i)), `, "measure": 256`)
	}
	srv.sem <- struct{}{} // hold the pool's one slot
	var wg sync.WaitGroup
	statuses := make(chan int, admitPerJob*jobs+1)
	postAsync := func(b []byte) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/profile", "application/json", bytes.NewReader(b))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}
	waitFor := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); !done(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	for i := range admitPerJob * jobs {
		postAsync(body(i))
	}
	waitFor("the admitted flights", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.flights) == admitPerJob*jobs
	})
	refused := body(admitPerJob * jobs)
	resp, data := post(t, ts.URL+"/v1/profile", refused)
	var er ErrorResponse
	if resp.StatusCode != http.StatusTooManyRequests || json.Unmarshal(data, &er) != nil || er.Code != CodeBusy ||
		resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("request past the bound: status %d, Retry-After %q: %s, want 429 busy",
			resp.StatusCode, resp.Header.Get("Retry-After"), data)
	}
	postAsync(body(0)) // a follower of an admitted flight
	waitFor("the follower", func() bool { return reg.Counter("server.singleflight.shared").Value() == 1 })
	if got := reg.Counter("server.computations").Value(); got != 0 {
		t.Fatalf("server.computations = %d with the pool held, want 0", got)
	}
	<-srv.sem
	wg.Wait()
	close(statuses)
	for status := range statuses {
		if status != http.StatusOK {
			t.Errorf("admitted request or follower: status %d, want 200", status)
		}
	}
	if resp, data := post(t, ts.URL+"/v1/profile", refused); resp.StatusCode != http.StatusOK {
		t.Fatalf("refused request retried on a free pool: status %d: %s", resp.StatusCode, data)
	}
	if got := reg.Counter("server.computations").Value(); got != admitPerJob*jobs+1 {
		t.Fatalf("server.computations = %d, want %d", got, admitPerJob*jobs+1)
	}
}

// TestDistinctRequestsDoNotCoalesce: different graphs compute separately.
func TestDistinctRequestsDoNotCoalesce(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	for _, scale := range []int64{16, 32} {
		resp, body := post(t, ts.URL+"/v1/plan", planBody(t, testGraphJSON(t, scale), ""))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	if got := reg.Counter("server.computations").Value(); got != 2 {
		t.Fatalf("server.computations = %d, want 2", got)
	}
}

func TestErrorPaths(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{MaxBodyBytes: 4096})
	graph := testGraphJSON(t, 16)
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"bad json", "POST", "/v1/plan", "{", http.StatusBadRequest, CodeBadRequest},
		{"unknown field", "POST", "/v1/plan", `{"graph": {}, "m": 1, "blocksize": 2}`, http.StatusBadRequest, CodeBadRequest},
		{"missing graph", "POST", "/v1/plan", `{"m": 512}`, http.StatusBadRequest, CodeBadRequest},
		{"bad m", "POST", "/v1/plan", string(planBody(t, graph, `, "m": -1`)), http.StatusBadRequest, CodeBadRequest},
		{"unknown scheduler", "POST", "/v1/plan", string(planBody(t, graph, `, "scheduler": "nope"`)), http.StatusBadRequest, CodeBadRequest},
		{"bad measure", "POST", "/v1/profile", string(planBody(t, graph, `, "measure": -5`)), http.StatusBadRequest, CodeBadRequest},
		// warm (default 1024) + measure does not fit in int64: the window's
		// end wrapped negative and the engine answered 200 with all zeros.
		{"window overflow", "POST", "/v1/profile", string(planBody(t, graph, `, "measure": 9223372036854775807`)), http.StatusBadRequest, CodeBadRequest},
		{"tiny cap", "POST", "/v1/profile", string(planBody(t, graph, `, "caps": [1]`)), http.StatusBadRequest, CodeBadRequest},
		// scale·reps·out past int64: the buffer wrapped negative, was
		// replaced by minBuf, and the plan was served and cached with a 200.
		// It is the request's fault, not the daemon's.
		{"scale overflow", "POST", "/v1/plan", string(planBody(t,
			[]byte(`{"name": "ac", "nodes": [{"name": "a", "state": 0}, {"name": "c", "state": 0}], "edges": [{"from": 0, "to": 1, "out": 2, "in": 1}]}`),
			`, "scheduler": "scaled", "scale": 4611686018427387904`)), http.StatusUnprocessableEntity, CodeUnprocessable},
		{"get on plan", "GET", "/v1/plan", "", http.StatusMethodNotAllowed, CodeMethod},
		{"unknown path", "GET", "/v1/nope", "", http.StatusNotFound, CodeNotFound},
		{"oversized", "POST", "/v1/plan", `{"graph": {"name": "` + strings.Repeat("x", 5000) + `"}}`, http.StatusRequestEntityTooLarge, CodeTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("error body is not ErrorResponse json: %s", body)
			}
			if er.Code != tc.code {
				t.Fatalf("code %q, want %q (%s)", er.Code, tc.code, er.Error)
			}
			if tc.name == "unknown scheduler" && er.Error != `unknown scheduler "nope" (want flat, scaled, demand, kohli, or partitioned)` {
				t.Fatalf("unknown-scheduler message changed: %q", er.Error)
			}
		})
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("rejected requests left %d cache entries", n)
	}
}

// TestStateOverflowRejected: a graph whose total state overflows int64 is
// a bad request, not a plan — it used to be keyed, planned and cached as
// one component of negative state — and it leaves no cache entry.
func TestStateOverflowRejected(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})
	graph := `{"name": "huge", "nodes": [{"name": "s", "state": 16}, {"name": "a", "state": 4611686018427387904}, {"name": "t", "state": 4611686018427387904}], "edges": [{"from": 0, "to": 1, "out": 1, "in": 1}, {"from": 1, "to": 2, "out": 1, "in": 1}]}`
	resp, body := post(t, ts.URL+"/v1/plan", planBody(t, []byte(graph), ""))
	var er ErrorResponse
	if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &er) != nil || er.Code != CodeBadRequest {
		t.Fatalf("status %d: %s, want 400 %s", resp.StatusCode, body, CodeBadRequest)
	}
	if !strings.Contains(er.Error, "overflows int64") {
		t.Errorf("error %q does not name the overflow", er.Error)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("a rejected graph left %d cache entries", n)
	}
}

// TestMalformedSeedsRejected: the corpus's decline-trailing-bytes body
// (a request followed by " x") and decline-unknown-graph-member body (a
// graph with a "kind" member) are bad requests on both endpoints. Both
// used to answer 200: encoding/json stopped reading after the first value
// and dropped graph members it did not know. The plan bodies are the
// seeds without their profile-only members, so that what /v1/plan refuses
// is the defect and not "warm".
func TestMalformedSeedsRejected(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})
	seeds := jsonscantest.Corpus(t, "testdata/fuzz/FuzzProfileRequestKey")
	for name, want := range map[string]string{
		"decline-trailing-bytes":       `bad request json: invalid character 'x' after top-level value`,
		"decline-unknown-graph-member": `bad graph: sdf: parse graph json: json: unknown field "kind"`,
	} {
		profile := seeds[name]
		plan := strings.Replace(string(profile), `, "warm": 8, "measure": 32, "caps": [64, 256]`, "", 1)
		if plan == string(profile) {
			t.Fatalf("%s: no profile members to strip:\n%s", name, profile)
		}
		for path, body := range map[string][]byte{"/v1/profile": profile, "/v1/plan": []byte(plan)} {
			resp, got := post(t, ts.URL+path, body)
			var er ErrorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(got, &er) != nil || er.Code != CodeBadRequest || er.Error != want {
				t.Errorf("%s on %s: status %d: %s, want 400 %q", name, path, resp.StatusCode, got, want)
			}
		}
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("rejected requests left %d cache entries", n)
	}
}

// TestFoldOverflowNotCached: a window that fits in int64 but whose folded
// steady state counts more accesses than int64 holds fails fast — the
// fold makes it cheap to reach — with a 422 overflow error, and leaves
// nothing in the cache.
func TestFoldOverflowNotCached(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})
	body := planBody(t, testGraphJSON(t, 16), `, "scheduler": "flat", "measure": 4611686018427387903`)
	start := time.Now()
	resp, data := post(t, ts.URL+"/v1/profile", body)
	elapsed := time.Since(start)
	var er ErrorResponse
	if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(data, &er) != nil ||
		er.Code != CodeUnprocessable || !strings.Contains(er.Error, "overflows int64") {
		t.Fatalf("status %d: %s, want a 422 unprocessable overflow error", resp.StatusCode, data)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("the overflow took %v to report", elapsed)
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("a failed profile left %d cache entries", n)
	}
}

// TestWorkBudgetRefused: a window that cannot fold and whose estimated
// work is past workBudget is refused before it runs — its computation
// fails with ErrBudget in under 10ms — and answers 422 unprocessable,
// caching nothing. Every profile window has a step and a Folder, so the
// part that cannot fold is the warm-up: demand and kohli asked for 10^15
// warm-up firings. The same schedules with a 10^15-firing window fold it
// and answer 200.
func TestWorkBudgetRefused(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})
	for _, sched := range []string{"demand", "kohli"} {
		body := planBody(t, testGraphJSON(t, 16), `, "scheduler": "`+sched+`", "warm": 1000000000000000`)
		_, compute, err := srv.profileBody(body)
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		_, err = compute()
		if elapsed := time.Since(start); !errors.Is(err, schedule.ErrBudget) || elapsed > 10*time.Millisecond {
			t.Fatalf("%s: computation failed with %v after %v, want ErrBudget in < 10ms", sched, err, elapsed)
		}
		resp, data := post(t, ts.URL+"/v1/profile", body)
		var er ErrorResponse
		if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(data, &er) != nil ||
			er.Code != CodeUnprocessable || !strings.Contains(er.Error, "window past the work budget") {
			t.Fatalf("%s: status %d: %s, want a 422 budget error", sched, resp.StatusCode, data)
		}
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("refused profiles left %d cache entries", n)
	}
	for _, sched := range []string{"demand", "kohli"} {
		body := planBody(t, testGraphJSON(t, 16), `, "scheduler": "`+sched+`", "measure": 1000000000000000`)
		if resp, data := post(t, ts.URL+"/v1/profile", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s folding 10^15 firings: status %d: %s, want 200", sched, resp.StatusCode, data)
		}
	}
}

// TestModuleOverBoundUnprocessable: a partitioned schedule of a graph
// with a module larger than m has no partition, which is the request's
// fault: both endpoints answer 422 unprocessable, not 500, and cache
// nothing.
func TestModuleOverBoundUnprocessable(t *testing.T) {
	srv, ts, _ := newTestServer(t, Config{})
	graph := `{"name": "p", "nodes": [{"name": "a", "state": 600}, {"name": "b", "state": 8}], "edges": [{"from": 0, "to": 1, "out": 1, "in": 1}]}`
	body := []byte(`{"graph": ` + graph + `, "m": 256, "scheduler": "partitioned"}`)
	for _, ep := range []string{"/v1/plan", "/v1/profile"} {
		resp, data := post(t, ts.URL+ep, body)
		var er ErrorResponse
		if resp.StatusCode != http.StatusUnprocessableEntity || json.Unmarshal(data, &er) != nil ||
			er.Code != CodeUnprocessable || !strings.Contains(er.Error, "no feasible partition") {
			t.Errorf("%s: status %d: %s, want 422 unprocessable", ep, resp.StatusCode, data)
		}
	}
	if n := srv.cache.Len(); n != 0 {
		t.Fatalf("failed requests left %d cache entries", n)
	}
}

// TestTimeout: a deadline shorter than the computation returns 504, and
// the detached computation still lands in the cache for the retry.
func TestTimeout(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{Timeout: 1 * time.Nanosecond})
	req := planBody(t, testGraphJSON(t, 32), `, "measure": 512`)
	resp, body := post(t, ts.URL+"/v1/profile", req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Code != CodeTimeout {
		t.Fatalf("timeout error body: %s", body)
	}
	// The leader finishes in the background; the retry eventually hits.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if v, ok := func() ([]byte, bool) {
			resp, body := post(t, ts.URL+"/v1/profile", req)
			if resp.StatusCode == http.StatusOK && resp.Header.Get("X-Streamsched-Cache") == "hit" {
				return body, true
			}
			return nil, false
		}(); ok {
			_ = v
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cached result never appeared after timeout")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := reg.Counter("server.timeouts").Value(); got < 1 {
		t.Fatalf("server.timeouts = %d, want >= 1", got)
	}
}

// TestEngineVersionChangesKey: the same request under a different engine
// version must address a different entry, plan and profile alike.
func TestEngineVersionChangesKey(t *testing.T) {
	body := planBody(t, testGraphJSON(t, 16), "")
	req, g, err := parseProfile(body)
	if err != nil {
		t.Fatal(err)
	}
	const next = "streamsched-engine/test-next"
	if req.key(EngineVersion, g) == req.key(next, g) {
		t.Fatal("engine version does not participate in the profile key")
	}
	if req.PlanRequest.key(EngineVersion, g) == req.PlanRequest.key(next, g) {
		t.Fatal("engine version does not participate in the plan key")
	}
}

func TestAuxEndpoints(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	post(t, ts.URL+"/v1/plan", planBody(t, testGraphJSON(t, 16), ""))
	post(t, ts.URL+"/v1/plan", planBody(t, testGraphJSON(t, 16), ""))
	post(t, ts.URL+"/v1/plan", []byte(`{"m": 512}`))

	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	if code, body := get("/healthz"); code != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, body := get("/version"); code != 200 || !strings.Contains(string(body), EngineVersion) {
		t.Fatalf("version: %d %s", code, body)
	}
	code, body := get("/v1/stats")
	if code != 200 {
		t.Fatalf("stats: %d %s", code, body)
	}
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	if stats["cache_entries"].(float64) != 1 || stats["cache_hits"].(float64) != 1 || stats["errors"].(float64) != 1 {
		t.Fatalf("stats counters off: %s", body)
	}
	// Every counter /v1/stats reports is the registry's.
	snap := reg.Snapshot()
	for key, name := range map[string]string{
		"cache_hits": "cache.hits", "cache_misses": "cache.misses", "evictions": "cache.evictions",
		"requests": "server.requests", "computations": "server.computations",
		"shared": "server.singleflight.shared", "fastpath": "server.fastpath.hits",
		"timeouts": "server.timeouts", "errors": "server.errors",
	} {
		if got, want := int64(stats[key].(float64)), snap.Counters[name]; got != want {
			t.Errorf("stats %s = %d, registry %s = %d", key, got, name, want)
		}
	}
	// The obs exposition is mounted on the same mux.
	if code, body := get("/metrics"); code != 200 || !strings.Contains(string(body), "streamsched_server_requests_total") {
		t.Fatalf("/metrics missing server counters: %d\n%s", code, body)
	}
	if code, _ := get("/metrics.json"); code != 200 {
		t.Fatalf("/metrics.json: %d", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(string(body), "/v1/plan") {
		t.Fatalf("index: %d %s", code, body)
	}
}

// TestProfileDefaultGrid: an empty caps list evaluates the default
// power-of-two grid and reports a monotone non-increasing curve.
func TestProfileDefaultGrid(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, body := post(t, ts.URL+"/v1/profile", planBody(t, testGraphJSON(t, 16), `, "measure": 256, "warm": 64`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr ProfileResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Points) == 0 || pr.InputItems <= 0 || pr.Accesses <= 0 {
		t.Fatalf("implausible profile: %+v", pr)
	}
	for i := 1; i < len(pr.Points); i++ {
		if pr.Points[i].Capacity <= pr.Points[i-1].Capacity {
			t.Fatal("default grid not ascending")
		}
		if pr.Points[i].Misses > pr.Points[i-1].Misses {
			t.Fatal("LRU miss curve not monotone")
		}
	}
}

// TestCapsCanonicalisation: unsorted, duplicated, unaligned caps address
// the same entry as their canonical form.
func TestCapsCanonicalisation(t *testing.T) {
	_, ts, reg := newTestServer(t, Config{})
	a := planBody(t, testGraphJSON(t, 16), `, "measure": 128, "caps": [4096, 256, 256, 4100]`)
	b := planBody(t, testGraphJSON(t, 16), `, "measure": 128, "caps": [256, 4096]`)
	respA, bodyA := post(t, ts.URL+"/v1/profile", a)
	if respA.StatusCode != 200 {
		t.Fatalf("status %d: %s", respA.StatusCode, bodyA)
	}
	respB, bodyB := post(t, ts.URL+"/v1/profile", b)
	if respB.Header.Get("X-Streamsched-Cache") != "hit" {
		t.Fatal("canonical caps form missed the cache")
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Fatal("canonicalised caps served different bytes")
	}
	if got := reg.Counter("server.computations").Value(); got != 1 {
		t.Fatalf("computations = %d, want 1", got)
	}
}

// TestGoldenKeys pins the content address of one plan and one profile
// request, spelled compactly and re-spelled (members reordered and
// case-folded). The hex keys were computed
// before the digest hashed one buffer; SERVICE.md's cache-key contract
// promises they change only with EngineVersion.
func TestGoldenKeys(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	graph := testGraphJSON(t, 16)
	for _, tc := range []struct {
		path, extra, respelled, want string
	}{
		{"/v1/plan", `, "b": 16, "scheduler": "partitioned"`,
			`{"Scheduler": "partitioned", "M": 512, "graph": %s}`,
			"1e5d4a280f37e1f26614331dd6ecb35f0469d9508a99e80d702592a2265e47ee"},
		{"/v1/profile", `, "warm": 64, "measure": 256, "caps": [1024, 256, 300]`,
			`{"caps": [300, 1024, 256, 256], "Measure": 256, "graph": %s, "WARM": 64, "m": 512, "b": 16}`,
			"c6d32168634d6aca42fb798dd063252250782faf57f319d2a7470d89899a7a35"},
	} {
		for _, body := range [][]byte{planBody(t, graph, tc.extra), []byte(fmt.Sprintf(tc.respelled, graph))} {
			resp, out := post(t, ts.URL+tc.path, body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", tc.path, resp.StatusCode, out)
			}
			if got := resp.Header.Get("X-Streamsched-Key"); got != tc.want {
				t.Errorf("%s key %s, want %s\n%s", tc.path, got, tc.want, body)
			}
		}
	}
}

// TestReadBody: the body buffer is sized from Content-Length but never
// past bodyHint, so a header announcing more than arrives costs only what
// arrives; an unknown length starts small and grows; the limit holds.
func TestReadBody(t *testing.T) {
	long := strings.Repeat("x", 3000)
	for _, tc := range []struct {
		name     string
		announce int64
		send     string
		limit    int64
		want     string
		maxCap   int
	}{
		{"exact length", 5, "hello", 100, "hello", 6},
		{"lying length", 8 << 20, "hi", 8<<20 + 1, "hi", bodyHint + 1},
		{"unknown length", -1, long, 8 << 20, long, 8192},
		{"over the limit", int64(len(long)), long, 5, long[:5], 64},
		{"negative limit", 5, "hello", -1, "", 8}, // streamschedd -maxbody -2
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(tc.send))
		r.ContentLength = tc.announce
		body, err := readBody(r, tc.limit)
		if err != nil || string(body) != tc.want || cap(body) > tc.maxCap {
			t.Errorf("%s: read %d bytes (cap %d, err %v), want %d bytes in at most %d", tc.name, len(body), cap(body), err, len(tc.want), tc.maxCap)
		}
	}
	// A negative MaxBodyBytes answers every body 413 without reading it.
	w := httptest.NewRecorder()
	New(Config{MaxBodyBytes: -2, CacheBytes: 1 << 20}).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader("{}")))
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("MaxBodyBytes -2: status %d, want 413: %s", w.Code, w.Body)
	}
}

// BenchmarkHandlerHit times the warm paths through the handler on a
// 1.7 KB profile request: a byte-identical resend (the raw-body memo), a
// never-seen spelling of the same request in the common spelling (one-pass
// decode, build, key), the same with a case-folded member name (still one
// pass), and a never-seen body with an error in it (refused in one pass,
// worded by encoding/json, answered 400).
func BenchmarkHandlerHit(b *testing.B) {
	g, err := workloads.FMRadio(8, 16)
	if err != nil {
		b.Fatal(err)
	}
	graph, _ := g.MarshalJSON()
	var compact bytes.Buffer
	if err := json.Compact(&compact, graph); err != nil {
		b.Fatal(err)
	}
	body := fmt.Sprintf(`{"graph":%s,"m":512,"b":16,"scheduler":"partitioned","warm":1024,"measure":512,"caps":[256,1024,4096]}`, compact.Bytes())
	h := New(Config{CacheBytes: 64 << 20}).Handler()
	serve := func(body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/profile", bytes.NewReader(body)))
		return w
	}
	if w := serve([]byte(body)); w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body)
	}
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if serve([]byte(body)).Header().Get("X-Streamsched-Cache") != "hit" {
				b.Fatal("miss")
			}
		}
	})
	var n uint32 // outside the closures: the framework may call them more than once
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"canonical", body, http.StatusOK},
		// encoding/json folds "M" to m, and so does the one-pass decoder.
		{"folded", strings.Replace(body, `"m":`, `"M":`, 1), http.StatusOK},
		// An exponent where an integer belongs is an error.
		{"declined", strings.Replace(body, `"m":512`, `"m":5e2`, 1), http.StatusBadRequest},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				// Spell the variant number in spaces and tabs after the
				// brace, so every body is new to the raw-body memo.
				n++
				v := []byte{'{'}
				for k := n; k != 0; k >>= 1 {
					v = append(v, " \t"[k&1])
				}
				w := serve(append(v, c.body[1:]...))
				if w.Code != c.status || (w.Code == http.StatusOK && w.Header().Get("X-Streamsched-Cache") != "hit") {
					b.Fatalf("status %d, cache %q: %s", w.Code, w.Header().Get("X-Streamsched-Cache"), w.Body)
				}
			}
		})
	}
}

// BenchmarkComputeProfileCold times one never-seen profile computation —
// parse, key, plan, record and profile, everything a cold /v1/profile pays
// but the cache and HTTP — on a request shaped like the daemon-cold
// benchmark workload's: an 8-branch split-join of two-filter branches whose
// modules hold 12 blocks of state give or take one, M=512, B=16, warm 512,
// measure 2560, capacities 256 to 8192.
func BenchmarkComputeProfileCold(b *testing.B) {
	const block = 16
	g, err := randgraph.RandomSplitJoin(rand.New(rand.NewSource(1)), randgraph.SplitJoinSpec{
		Branches: 8, BranchDepth: 2, StateMin: 11 * block, StateMax: 13 * block,
	})
	if err != nil {
		b.Fatal(err)
	}
	graph, err := g.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	body := []byte(fmt.Sprintf(`{"graph":%s,"m":512,"b":%d,"scheduler":"partitioned","warm":512,"measure":2560,"caps":[256,512,1024,2048,4096,8192]}`, graph, block))
	s := New(Config{CacheBytes: 1 << 20})
	b.ReportAllocs()
	for b.Loop() {
		_, compute, err := s.profileBody(body)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := compute(); err != nil {
			b.Fatal(err)
		}
	}
}
