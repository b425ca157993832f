package server

import (
	"maps"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"streamsched/internal/jsonscan/jsonscantest"
)

// TestOnePassDeclines pins the one-pass decoder's spelling: the corpus's
// accept-profile body (and its plan-only prefix) is decoded in one pass,
// and each decline-* body, which differs from it by one reason to decline
// (an escape, a non-ASCII byte, a case-folded or repeated name, null, an
// exponent, a fraction, a leading zero, int64 overflow, trailing bytes,
// an unknown graph member), goes to encoding/json.
func TestOnePassDeclines(t *testing.T) {
	seeds := jsonscantest.Corpus(t, "testdata/fuzz/FuzzProfileRequestKey")
	accept := seeds["accept-profile"]
	var req ProfileRequest
	if !decodeRequest(accept, &req.PlanRequest, &req) {
		t.Fatalf("accept-profile declined:\n%s", accept)
	}
	plan, _, _ := strings.Cut(string(accept), `, "warm"`)
	if req := (PlanRequest{}); !decodeRequest([]byte(plan+"}"), &req, nil) {
		t.Fatalf("plan prefix of accept-profile declined:\n%s}", plan)
	}
	n := 0
	for name, body := range seeds {
		if !strings.HasPrefix(name, "decline-") {
			continue
		}
		n++
		if req := (ProfileRequest{}); decodeRequest(body, &req.PlanRequest, &req) {
			t.Errorf("%s: one-pass decode accepted\n%s", name, body)
		}
	}
	if n < 12 {
		t.Fatalf("%d decline-* seeds, want one per reason (12)", n)
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
