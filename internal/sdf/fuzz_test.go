package sdf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"streamsched/internal/jsonscan"
	"streamsched/internal/jsonscan/jsonscantest"
)

// checkOnePass reports whether DecodeJSON reads all of data in one pass,
// and if it does, fails t unless encoding/json reads the same graph: the
// Builder it leads ReadJSON to fill must hold the same name, nodes, edges
// and pending error.
func checkOnePass(t testing.TB, data []byte) bool {
	t.Helper()
	s := jsonscan.New(data)
	b := DecodeJSON(s)
	if !s.End() {
		return false
	}
	var jg jsonGraph
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&jg); err != nil {
		t.Fatalf("one-pass decode accepted a graph encoding/json refuses (%v):\n%s", err, data)
	}
	ref := NewBuilder(jg.Name)
	jg.addTo(ref)
	if b.name != ref.name || !slices.Equal(b.nodes, ref.nodes) || !slices.Equal(b.edges, ref.edges) || fmt.Sprint(b.err) != fmt.Sprint(ref.err) {
		t.Fatalf("one-pass decode built %q %v %v (%v), encoding/json %q %v %v (%v)\n%s",
			b.name, b.nodes, b.edges, b.err, ref.name, ref.nodes, ref.edges, ref.err, data)
	}
	return true
}

// TestDecodeJSONDeclines pins the graph decoder's spelling: the corpus's
// fmradio export is decoded in one pass, and each decline-* graph, which
// differs from a small accepted graph by one reason to decline, goes to
// encoding/json.
func TestDecodeJSONDeclines(t *testing.T) {
	seeds := jsonscantest.Corpus(t, "testdata/fuzz/FuzzReadJSON")
	if !checkOnePass(t, seeds["fmradio"]) {
		t.Fatal("fmradio declined")
	}
	n := 0
	for name, data := range seeds {
		if strings.HasPrefix(name, "decline-") {
			n++
			if checkOnePass(t, data) {
				t.Errorf("%s: one-pass decode accepted\n%s", name, data)
			}
		}
	}
	if n == 0 {
		t.Fatal("no decline-* seeds")
	}
}

// TestDecodeJSONMatchesEncodingJSON is FuzzReadJSON's one-pass check run
// where fuzzing cannot: 100,000 seeded mutations of the corpus through
// checkOnePass.
func TestDecodeJSONMatchesEncodingJSON(t *testing.T) {
	const mutations = 100000
	corpus := jsonscantest.Corpus(t, "testdata/fuzz/FuzzReadJSON")
	names := slices.Sorted(maps.Keys(corpus))
	r := rand.New(rand.NewPCG(42, 1))
	accepted := 0
	for i := range mutations {
		if checkOnePass(t, jsonscantest.Mutate(r, corpus[names[i%len(names)]])) {
			accepted++
		}
	}
	t.Logf("%d mutations, %d one-pass decodes checked against encoding/json", mutations, accepted)
	if accepted < mutations/100 {
		t.Fatalf("only %d of %d mutations decoded in one pass; the check is vacuous", accepted, mutations)
	}
}

// FuzzReadJSON feeds arbitrary bytes to the graph parser the CLI and the
// daemon share. No input may panic, and every graph it accepts must hold
// what the schedulers and profilers take for granted: TotalState is the
// sum of the module states, at least MaxState, at least 0; every
// repetition is positive; every edge balances, reps(from)·out ==
// reps(to)·in, compared in 128 bits; and MarshalJSON output reads back to
// a graph that marshals to the same bytes. The seed corpus is
// testdata/fuzz/FuzzReadJSON: exported workloads, a pipeline whose total
// state overflows int64, and one graph per reason the one-pass decoder
// declines (decline-*). Every input also goes through checkOnePass, which
// holds DecodeJSON to encoding/json.
func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOnePass(t, data)
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var sum int64
		for v := 0; v < g.NumNodes(); v++ {
			s := g.Node(NodeID(v)).State
			if s < 0 || s > math.MaxInt64-sum {
				t.Fatalf("accepted node %d with state %d after a running total of %d", v, s, sum)
			}
			sum += s
			if r := g.Repetitions(NodeID(v)); r <= 0 {
				t.Fatalf("node %d has repetition %d", v, r)
			}
		}
		if g.TotalState() != sum {
			t.Fatalf("TotalState %d; the modules sum to %d", g.TotalState(), sum)
		}
		for e := 0; e < g.NumEdges(); e++ {
			ed := g.Edge(EdgeID(e))
			hiOut, loOut := bits.Mul64(uint64(g.Repetitions(ed.From)), uint64(ed.Out))
			hiIn, loIn := bits.Mul64(uint64(g.Repetitions(ed.To)), uint64(ed.In))
			if hiOut != hiIn || loOut != loIn {
				t.Fatalf("edge %d (%d -> %d, out %d, in %d) does not balance", e, ed.From, ed.To, ed.Out, ed.In)
			}
		}
		out, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back, err := ReadJSON(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("marshalled graph does not read back: %v\n%s", err, out)
		}
		again, err := back.MarshalJSON()
		if err != nil || !bytes.Equal(out, again) {
			t.Fatalf("round trip changed the graph (err %v):\n%s\nvs\n%s", err, out, again)
		}
	})
}
