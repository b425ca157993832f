package sdf

import (
	"bytes"
	"math"
	"math/bits"
	"testing"
)

// FuzzReadJSON feeds arbitrary bytes to the graph parser the CLI and the
// daemon share. No input may panic, and every graph it accepts must hold
// what the schedulers and profilers take for granted: TotalState is the
// sum of the module states, at least MaxState, at least 0; every
// repetition is positive; every edge balances, reps(from)·out ==
// reps(to)·in, compared in 128 bits; and MarshalJSON output reads back to
// a graph that marshals to the same bytes. The seed corpus is
// testdata/fuzz/FuzzReadJSON: exported workloads, and a pipeline whose
// total state overflows int64.
func FuzzReadJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadJSON(bytes.NewReader(data))
		if err != nil {
			return
		}
		var sum, maxState int64
		for v := 0; v < g.NumNodes(); v++ {
			s := g.Node(NodeID(v)).State
			if s < 0 || s > math.MaxInt64-sum {
				t.Fatalf("accepted node %d with state %d after a running total of %d", v, s, sum)
			}
			sum, maxState = sum+s, max(maxState, s)
			if r := g.Repetitions(NodeID(v)); r <= 0 {
				t.Fatalf("node %d has repetition %d", v, r)
			}
		}
		if g.TotalState() != sum || g.MaxState() != maxState || sum < maxState || maxState < 0 {
			t.Fatalf("TotalState %d, MaxState %d; the modules sum to %d, largest %d", g.TotalState(), g.MaxState(), sum, maxState)
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
