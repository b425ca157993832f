package server

import (
	"encoding/json"
	"runtime"
	"testing"

	"streamsched/internal/plancache"
)

// keyOf runs a profile body through the daemon's untrusted-input path —
// strict decode, then normalise — and keys it.
func keyOf(body []byte) (*ProfileRequest, plancache.Key, error) {
	var req ProfileRequest
	if err := unmarshalStrict(body, &req); err != nil {
		return nil, plancache.Key{}, err
	}
	g, err := req.normalize()
	if err != nil {
		return nil, plancache.Key{}, err
	}
	return &req, req.key(EngineVersion, g), nil
}

// FuzzProfileRequestKey throws arbitrary bytes at the request path that
// runs before any admission decision: decoding and normalising never panic
// and never allocate out of proportion to the body, and whatever
// normalises has one cache key however it is spelled — re-marshalling the
// normalised request (every default explicit, caps canonical) and
// re-spelling it with its fields reordered, re-indented and its defaults
// omitted all normalise back to the same key. The seed corpus is
// testdata/fuzz/FuzzProfileRequestKey (the bodies server_test.go builds).
func FuzzProfileRequestKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
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
