package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"streamsched/internal/jsonscan/jsonscantest"
	"streamsched/internal/plancache"
)

// TestOnePassDeclines pins the decoder's two halves on the corpus. Every
// accept-* body is decoded in one pass, as encoding/json reads it, to the
// same key: the common spelling (accept-profile, and its plan-only
// prefix), an escape, a non-ASCII byte, case-folded names (M, ſcale), a
// repeated member, null caps, a repeated nodes array decoded over the
// first, a null caps element, a lone surrogate and a null graph. Every
// decline-* body, one error away from accept-profile (an exponent, a
// fraction, a leading zero, int64 overflow, trailing bytes, an unknown
// graph member, a bad escape, a non-ASCII number, names that do not fold
// to a member, a repeat whose last value is a fraction, a misspelt null),
// is refused by encoding/json too, as a request or as a graph.
func TestOnePassDeclines(t *testing.T) {
	seeds := jsonscantest.Corpus(t, "testdata/fuzz/FuzzProfileRequestKey")
	plan, _, _ := strings.Cut(string(seeds["accept-profile"]), `, "warm"`)
	if req := (PlanRequest{}); !decodeRequest([]byte(plan+"}"), &req, nil) {
		t.Fatalf("plan prefix of accept-profile declined:\n%s}", plan)
	}
	var accepts, declines int
	for name, body := range seeds {
		// Read in one pass: the request, and its graph member as a graph.
		req := ProfileRequest{}
		ok := decodeRequest(body, &req.PlanRequest, &req) && req.graph != nil
		switch {
		case strings.HasPrefix(name, "accept-"):
			accepts++
			if !ok {
				t.Errorf("%s: one-pass decode declined\n%s", name, body)
			}
		case strings.HasPrefix(name, "decline-"):
			declines++
			if ok {
				t.Errorf("%s: one-pass decode accepted\n%s", name, body)
			}
			if ref := (ProfileRequest{}); unmarshalStrict(body, &ref) == nil && refBuilder(ref.Graph) != nil {
				t.Errorf("%s: encoding/json reads it\n%s", name, body)
			}
		}
		checkOnePass(t, body)
	}
	if accepts < 11 || declines < 12 {
		t.Fatalf("%d accept-* and %d decline-* seeds, want 11 and 12", accepts, declines)
	}
}

// TestOnePassMatchesEncodingJSON is FuzzProfileRequestKey's one-pass
// check run where fuzzing cannot: 100,000 seeded mutations of the corpus,
// each through checkOnePass on both endpoints. go test -fuzz makes only
// a few dozen executions a second on a small machine; this makes the
// equivalence a tier-1 property.
func TestOnePassMatchesEncodingJSON(t *testing.T) {
	const mutations = 100000
	corpus := jsonscantest.Corpus(t, "testdata/fuzz/FuzzProfileRequestKey")
	names := slices.Sorted(maps.Keys(corpus))
	r := rand.New(rand.NewPCG(42, 0))
	accepted := 0
	for i := range mutations {
		accepted += checkOnePass(t, jsonscantest.Mutate(r, corpus[names[i%len(names)]]))
	}
	t.Logf("%d mutations, %d one-pass decodes checked against encoding/json", mutations, accepted)
	if accepted < mutations/100 {
		t.Fatalf("only %d of %d mutations decoded in one pass; the check is vacuous", accepted, mutations)
	}
}

// TestDecoderGapIsInternal: a body or a graph the one-pass decoder
// refused but encoding/json reads is a gap in the decoder, and the handler
// answers it 500 internal, not with a second reading. No body reaches it
// while the decoders agree, so it is driven directly.
func TestDecoderGapIsInternal(t *testing.T) {
	body := jsonscantest.Corpus(t, "testdata/fuzz/FuzzProfileRequestKey")["accept-profile"]
	if err := declined(body, new(ProfileRequest)); !errors.Is(err, errDecoderGap) {
		t.Fatalf("declined on a body encoding/json reads: %v", err)
	}
	var req ProfileRequest
	if !decodeRequest(body, &req.PlanRequest, &req) {
		t.Fatal("accept-profile declined")
	}
	req.graph = nil // as if sdf.DecodeJSON had refused the graph
	if _, err := req.normalize(); !errors.Is(err, errDecoderGap) {
		t.Fatalf("normalize with a graph encoding/json reads but no one-pass reading: %v", err)
	}
	s := New(Config{CacheBytes: 1 << 20})
	w := httptest.NewRecorder()
	s.handleCompute(w, httptest.NewRequest(http.MethodPost, "/v1/profile", bytes.NewReader(body)), "profile",
		func([]byte) (plancache.Key, func() ([]byte, error), error) {
			return plancache.Key{}, nil, errDecoderGap
		})
	var er ErrorResponse
	if w.Code != http.StatusInternalServerError || json.Unmarshal(w.Body.Bytes(), &er) != nil || er.Code != CodeInternal {
		t.Fatalf("a decoder gap answered %d: %s", w.Code, w.Body)
	}
}
