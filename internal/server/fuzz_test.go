package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"streamsched/internal/obs"
	"streamsched/internal/plancache"
	"streamsched/internal/sdf"
)

// keyOf runs a profile body through the daemon's untrusted-input path —
// decode, then normalise — and keys it.
func keyOf(body []byte) (*ProfileRequest, plancache.Key, error) {
	req, g, err := parseProfile(body)
	if err != nil {
		return nil, plancache.Key{}, err
	}
	return req, req.key(EngineVersion, g), nil
}

// refGraph mirrors the graph interchange format for encoding/json, so
// that checkOnePass reads a graph member without the decoder under test.
type refGraph struct {
	Name  string `json:"name"`
	Nodes []struct {
		Name  string `json:"name"`
		State int64  `json:"state"`
	} `json:"nodes"`
	Edges []struct {
		From int   `json:"from"`
		To   int   `json:"to"`
		Out  int64 `json:"out"`
		In   int64 `json:"in"`
	} `json:"edges"`
}

// refBuilder is encoding/json's reading of a raw graph member: the
// Builder its decode leads to, nil when encoding/json refuses the value
// as a graph.
func refBuilder(raw []byte) *sdf.Builder {
	var rg refGraph
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if dec.Decode(&rg) != nil {
		return nil
	}
	b := sdf.NewBuilder(rg.Name)
	for _, n := range rg.Nodes {
		b.AddNode(n.Name, n.State)
	}
	for _, e := range rg.Edges {
		b.Connect(sdf.NodeID(e.From), sdf.NodeID(e.To), e.Out, e.In)
	}
	return b
}

// checkOnePass runs body through the one-pass decoder as a plan request
// and as a profile request, with encoding/json as the oracle: the decoder
// must accept exactly the bodies unmarshalStrict accepts, and read the
// same fields and raw graph bytes; it must take the graph member for a
// graph exactly when encoding/json reads it as one; and both readings
// must normalise to the same error, or to the same fields, graph and key.
// It returns how many of the two endpoints' decoders accepted.
func checkOnePass(t testing.TB, body []byte) int {
	t.Helper()
	accepted := 0
	for _, kind := range []string{"plan", "profile"} {
		var fast, ref ProfileRequest
		profile, refTarget := &fast, any(&ref)
		normalize := (*ProfileRequest).normalize
		key := func(r *ProfileRequest, g *sdf.Graph) plancache.Key { return r.key(EngineVersion, g) }
		if kind == "plan" {
			profile, refTarget = nil, &ref.PlanRequest
			normalize = func(r *ProfileRequest) (*sdf.Graph, error) { return r.PlanRequest.normalize() }
			key = func(r *ProfileRequest, g *sdf.Graph) plancache.Key { return r.PlanRequest.key(EngineVersion, g) }
		}
		ok := decodeRequest(body, &fast.PlanRequest, profile)
		if err := unmarshalStrict(body, refTarget); ok != (err == nil) {
			t.Fatalf("%s: one-pass decode accepted %t; encoding/json: %v\n%s", kind, ok, err, body)
		}
		if !ok {
			continue
		}
		accepted++
		fields := func(r *ProfileRequest) string {
			return fmt.Sprintf("graph %q m %d b %d scheduler %q scale %d warm %d measure %d caps %v (nil %t)",
				r.Graph, r.M, r.B, r.Scheduler, r.Scale, r.Warm, r.Measure, r.Caps, r.Caps == nil)
		}
		if a, b := fields(&fast), fields(&ref); a != b {
			t.Fatalf("%s: one-pass decode read\n%s\nencoding/json read\n%s\nbody:\n%s", kind, a, b, body)
		}
		if len(ref.Graph) > 0 {
			ref.graph = refBuilder(ref.Graph)
		}
		if (fast.graph == nil) != (ref.graph == nil) {
			t.Fatalf("%s: one-pass decode read a graph: %t; encoding/json: %t\n%s", kind, fast.graph != nil, ref.graph != nil, body)
		}
		gf, errF := normalize(&fast)
		gr, errR := normalize(&ref)
		if fmt.Sprint(errF) != fmt.Sprint(errR) || errors.Is(errF, errDecoderGap) {
			t.Fatalf("%s: normalize after one-pass decode: %v; after encoding/json: %v\n%s", kind, errF, errR, body)
		}
		if errF != nil {
			continue
		}
		if a, b := fields(&fast), fields(&ref); a != b {
			t.Fatalf("%s: normalised one-pass request\n%s\nnormalised encoding/json request\n%s", kind, a, b)
		}
		jf, _ := gf.MarshalJSON()
		jr, _ := gr.MarshalJSON()
		if !bytes.Equal(jf, jr) {
			t.Fatalf("%s: graphs differ:\n%s\nvs\n%s", kind, jf, jr)
		}
		if kf, kr := key(&fast, gf), key(&ref, gr); kf != kr {
			t.Fatalf("%s: one-pass key %s, encoding/json key %s\n%s", kind, kf, kr, body)
		}
	}
	return accepted
}

// FuzzProfileRequestKey throws arbitrary bytes at the request path that
// runs before any admission decision: decoding and normalising never panic
// and never allocate out of proportion to the body, and whatever
// normalises has one cache key however it is spelled — re-marshalling the
// normalised request (every default explicit, caps canonical) and
// re-spelling it with its fields reordered, re-indented and its defaults
// omitted all normalise back to the same key. The seed corpus is
// testdata/fuzz/FuzzProfileRequestKey (the bodies server_test.go builds,
// accept-* bodies in spellings other than the common one, and decline-*
// bodies, each one error away from accept-profile). Every input also goes
// through checkOnePass, which holds the one-pass decoder to encoding/json
// on both endpoints: the same bodies accepted, the same reading.
func FuzzProfileRequestKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		checkOnePass(t, body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, key, err := keyOf(body)
		runtime.ReadMemStats(&after)
		// Decode + graph build cost a few hundred bytes per byte of JSON at
		// worst (a node is ~20 bytes of body); 4 KiB per byte plus slack for
		// the fuzz worker's own traffic is the order the 8 MiB body bound
		// has to be multiplied by, not a budget to meet.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+4096*uint64(len(body)) {
			t.Fatalf("a %d-byte body allocated %d bytes", len(body), grew)
		}
		if err != nil {
			return
		}
		explicit, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		fields := map[string]any{"graph": req.Graph, "m": req.M}
		for name, v := range map[string][2]any{
			"b":         {req.B, int64(DefaultBlock)},
			"scheduler": {req.Scheduler, DefaultScheduler},
			"scale":     {req.Scale, int64(DefaultScale)},
			"warm":      {req.Warm, int64(DefaultWarm)},
			"measure":   {req.Measure, int64(DefaultMeasure)},
		} {
			if v[0] != v[1] {
				fields[name] = v[0]
			}
		}
		if len(req.Caps) > 0 {
			fields["caps"] = req.Caps
		}
		// A map marshals in key order (caps first, graph before m), which
		// is not the struct's; MarshalIndent re-spaces the graph as well.
		respelled, err := json.MarshalIndent(fields, " ", "\t")
		if err != nil {
			t.Fatal(err)
		}
		for spelling, variant := range map[string][]byte{"explicit": explicit, "respelled": respelled} {
			_, again, err := keyOf(variant)
			if err != nil {
				t.Fatalf("%s form of a normalised request is rejected: %v\n%s", spelling, err, variant)
			}
			if again != key {
				t.Fatalf("%s form keys to %s, original to %s\n%s", spelling, again, key, variant)
			}
		}
	})
}

// fuzzBudget is FuzzServe's work budget: 2^18 block accesses, ~20 ms of
// one core for a window that does not fold, so every input costs
// milliseconds and a bigger window is refused as the daemon refuses one
// past workBudget.
const fuzzBudget = 1 << 18

// FuzzServe throws arbitrary bodies through the computation: each input
// is posted to /v1/plan and /v1/profile through the real handler, on a
// server whose work budget is lowered to fuzzBudget. The property: no
// panic (a computation runs on a goroutine of its own, so a panic there
// ends the run), every status is 200, 400, 413, 422, 429 or 504 — never a 500,
// which would tell the client to retry and the operator that the daemon is
// broken — and a 200 body is byte-identical when the same input is posted
// a second time. The seeds are FuzzProfileRequestKey's corpus, the
// fold-overflow and module-over-bound bodies, and integers near 2^62 or
// with b > m.
func FuzzServe(f *testing.F) {
	seeds, err := filepath.Glob("testdata/fuzz/FuzzProfileRequestKey/*")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range seeds {
		f.Add(corpusBytes(f, path))
	}
	graph := testGraphJSON(f, 16)
	f.Add(planBody(f, graph, `, "scheduler": "flat", "measure": 4611686018427387903`))
	f.Add([]byte(`{"graph": {"name": "p", "nodes": [{"name": "a", "state": 600}, {"name": "b", "state": 8}], "edges": [{"from": 0, "to": 1, "out": 1, "in": 1}]}, "m": 256, "scheduler": "partitioned"}`))
	for _, extra := range []string{
		`, "b": 1024`,
		`, "m": 4611686018427387904`,
		`, "b": 4611686018427387904`,
		`, "warm": 4611686018427387904`,
		`, "measure": 4611686018427387903, "scheduler": "demand"`,
		`, "scheduler": "scaled", "scale": 4611686018427387904`,
		`, "caps": [4611686018427387904]`,
	} {
		f.Add(planBody(f, graph, extra))
	}
	f.Add([]byte(`{"graph": {"name": "big", "nodes": [{"name": "a", "state": 4611686018427387904}, {"name": "b", "state": 1}], "edges": [{"from": 0, "to": 1, "out": 4611686018427387904, "in": 1}]}, "m": 512}`))
	srv := New(Config{CacheBytes: 16 << 20, Timeout: 5 * time.Second, Metrics: obs.NewRegistry()})
	srv.budget = fuzzBudget
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range []string{"/v1/plan", "/v1/profile"} {
			first := serve(h, ep, body)
			switch first.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge,
				http.StatusUnprocessableEntity, http.StatusTooManyRequests, http.StatusGatewayTimeout:
			default:
				t.Fatalf("%s: status %d: %s\nbody:\n%s", ep, first.Code, first.Body, body)
			}
			if first.Code != http.StatusOK {
				continue
			}
			if again := serve(h, ep, body); again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) {
				t.Fatalf("%s: posted again: status %d, body\n%s\nfirst\n%s", ep, again.Code, again.Body, first.Body)
			}
		}
	})
}

// serve posts body to the handler's endpoint ep and returns the recorded
// response.
func serve(h http.Handler, ep string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, ep, bytes.NewReader(body)))
	return w
}

// corpusBytes reads the one []byte value of a "go test fuzz v1" corpus
// file.
func corpusBytes(f *testing.F, path string) []byte {
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	_, value, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
	value, prefixed := strings.CutPrefix(value, "[]byte(")
	value, closed := strings.CutSuffix(value, ")")
	if !prefixed || !closed {
		f.Fatalf("%s: not one []byte value", path)
	}
	s, err := strconv.Unquote(value)
	if err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
