package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"testing"

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
