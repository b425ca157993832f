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

// addTo makes the Builder calls encoding/json's reading of a graph stands
// for: every node, then every edge, in document order. It is the
// reference DecodeJSON is held to.
func (jg *jsonGraph) addTo(b *Builder) {
	for _, n := range jg.Nodes {
		b.AddNode(n.Name, n.State)
	}
	for _, e := range jg.Edges {
		b.Connect(NodeID(e.From), NodeID(e.To), e.Out, e.In)
	}
}

// checkOnePass reports whether DecodeJSON reads all of data in one pass,
// with encoding/json as the oracle: it fails t unless DecodeJSON accepts
// exactly what encoding/json, reading data as ReadJSON's wording path
// does (unknown members and trailing bytes refused), accepts; unless
// ParseError words exactly the refusals; and unless an accepted graph's
// Builder holds the name, nodes, edges and pending error encoding/json's
// reading leads to.
func checkOnePass(t testing.TB, data []byte) bool {
	t.Helper()
	s := jsonscan.New(data)
	b := DecodeJSON(s)
	ok := s.End()
	var jg jsonGraph
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&jg)
	if rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n"); err == nil && len(rest) > 0 {
		err = fmt.Errorf("%q after the graph", rest)
	}
	if ok != (err == nil) {
		t.Fatalf("one-pass decode accepted %t; encoding/json: %v\n%s", ok, err, data)
	}
	if perr := ParseError(data); (perr == nil) != ok {
		t.Fatalf("one-pass decode accepted %t; ParseError: %v\n%s", ok, perr, data)
	}
	if !ok {
		return false
	}
	ref := NewBuilder(jg.Name)
	jg.addTo(ref)
	if b.name != ref.name || !slices.Equal(b.nodes, ref.nodes) || !slices.Equal(b.edges, ref.edges) || fmt.Sprint(b.err) != fmt.Sprint(ref.err) {
		t.Fatalf("one-pass decode built %q %v %v (%v), encoding/json %q %v %v (%v)\n%s",
			b.name, b.nodes, b.edges, b.err, ref.name, ref.nodes, ref.edges, ref.err, data)
	}
	return true
}

// TestDecodeJSONDeclines pins the graph decoder's two halves on the
// corpus: the exported workloads and every accept-* graph — an escape, a
// non-ASCII byte, a case-folded name, a repeated member, a null element,
// a repeated nodes array decoded over the first, a lone surrogate — are
// read in one pass as encoding/json reads them, and every decline-*
// graph, one error away from a small accepted one, is refused by
// encoding/json too.
func TestDecodeJSONDeclines(t *testing.T) {
	seeds := jsonscantest.Corpus(t, "testdata/fuzz/FuzzReadJSON")
	var accepts, declines int
	for name, data := range seeds {
		ok := checkOnePass(t, data)
		switch {
		case name == "fmradio" || strings.HasPrefix(name, "accept-"):
			accepts++
			if !ok {
				t.Errorf("%s: one-pass decode declined\n%s", name, data)
			}
		case strings.HasPrefix(name, "decline-"):
			declines++
			if ok {
				t.Errorf("%s: one-pass decode accepted\n%s", name, data)
			}
		}
	}
	if accepts < 8 || declines < 11 {
		t.Fatalf("%d accept-* and %d decline-* seeds, want 8 and 11", accepts, declines)
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
// state overflows int64, graphs in spellings other than the exported one
// (accept-*) and graphs one error away from an accepted one (decline-*).
// Every input also goes through checkOnePass, which holds DecodeJSON to
// encoding/json: the same graphs accepted, the same reading.
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
