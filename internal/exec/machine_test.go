package exec

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/sdf"
)

var testCache = cachesim.Config{Capacity: 1 << 14, Block: 16}

func buildChain(t *testing.T, states ...int64) *sdf.Graph {
	t.Helper()
	b := sdf.NewBuilder("chain")
	ids := make([]sdf.NodeID, len(states))
	for i, s := range states {
		ids[i] = b.AddNode("n"+string(rune('a'+i)), s)
	}
	b.Chain(ids...)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func unitCaps(g *sdf.Graph, c int64) []int64 {
	caps := make([]int64, g.NumEdges())
	for i := range caps {
		caps[i] = c
	}
	return caps
}

func TestNewMachineValidation(t *testing.T) {
	g := buildChain(t, 0, 4, 0)
	if _, err := NewMachine(g, Config{Cache: testCache, Caps: []int64{4}}); err == nil {
		t.Error("wrong caps length accepted")
	}
	if _, err := NewMachine(g, Config{Cache: testCache, Caps: []int64{1, 1}}); err == nil {
		t.Error("capacity below minBuf accepted")
	}
	if _, err := NewMachine(g, Config{Cache: testCache, Caps: unitCaps(g, 4), CollectOutputs: 5}); err == nil {
		t.Error("CollectOutputs without Values accepted")
	}
	if _, err := NewMachine(g, Config{Cache: cachesim.Config{}, Caps: unitCaps(g, 4)}); err == nil {
		t.Error("invalid cache config accepted")
	}
}

func TestFireMovesTokens(t *testing.T) {
	g := buildChain(t, 0, 8, 0)
	m, err := NewMachine(g, Config{Cache: testCache, Caps: unitCaps(g, 4)})
	if err != nil {
		t.Fatal(err)
	}
	src, mid, sink := sdf.NodeID(0), sdf.NodeID(1), sdf.NodeID(2)
	if m.CanFire(mid) {
		t.Error("mid should not be fireable before source")
	}
	if err := m.Fire(src); err != nil {
		t.Fatal(err)
	}
	if m.InputItems() != 1 || m.SourceFirings() != 1 {
		t.Errorf("input accounting: items=%d fires=%d", m.InputItems(), m.SourceFirings())
	}
	if err := m.Fire(mid); err != nil {
		t.Fatal(err)
	}
	if err := m.Fire(sink); err != nil {
		t.Fatal(err)
	}
	if m.SinkItems() != 1 {
		t.Errorf("sink items = %d", m.SinkItems())
	}
	if err := m.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestFireBlockedReasons(t *testing.T) {
	g := buildChain(t, 0, 8, 0)
	m, err := NewMachine(g, Config{Cache: testCache, Caps: unitCaps(g, 2)})
	if err != nil {
		t.Fatal(err)
	}
	src, mid := sdf.NodeID(0), sdf.NodeID(1)
	if err := m.blocked(mid); !errors.Is(err, ErrNotReady) {
		t.Errorf("mid blocked = %v, want ErrNotReady", err)
	}
	// Fill src->mid buffer (cap 2).
	if err := m.FireTimes(src, 2); err != nil {
		t.Fatal(err)
	}
	if err := m.blocked(src); !errors.Is(err, ErrNoSpace) {
		t.Errorf("src blocked = %v, want ErrNoSpace", err)
	}
	if err := m.Fire(src); !errors.Is(err, ErrNoSpace) {
		t.Errorf("Fire on full output = %v, want ErrNoSpace", err)
	}
	if err := m.blocked(mid); err != nil {
		t.Errorf("mid should be fireable: %v", err)
	}
}

// TestCanFireAllocatesNothing: the schedulers loop on CanFire until it
// refuses, so a refusal must not build the error Fire would return.
func TestCanFireAllocatesNothing(t *testing.T) {
	g := buildChain(t, 0, 8, 0)
	m, err := NewMachine(g, Config{Cache: testCache, Caps: unitCaps(g, 2)})
	if err != nil {
		t.Fatal(err)
	}
	src, mid := sdf.NodeID(0), sdf.NodeID(1)
	if err := m.FireTimes(src, 2); err != nil {
		t.Fatal(err)
	}
	for _, v := range []sdf.NodeID{src, sdf.NodeID(2)} { // no space; no items
		if m.CanFire(v) {
			t.Fatalf("node %d can fire", v)
		}
		if n := testing.AllocsPerRun(100, func() { m.CanFire(v) }); n != 0 {
			t.Errorf("CanFire(%d) on a blocked node allocates %v times", v, n)
		}
	}
	if !m.CanFire(mid) {
		t.Error("mid should be fireable")
	}
}

func TestStateTouchCharges(t *testing.T) {
	// One module with 64 words of state, block 16: firing it cold costs 4
	// state misses (+ buffer traffic).
	g := buildChain(t, 0, 64, 0)
	m, err := NewMachine(g, Config{Cache: testCache, Caps: unitCaps(g, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fire(sdf.NodeID(0)); err != nil {
		t.Fatal(err)
	}
	m.Cache().ResetStats()
	if err := m.Fire(sdf.NodeID(1)); err != nil {
		t.Fatal(err)
	}
	s := m.Cache().Stats()
	// 4 state blocks miss; both tiny channel buffers pack into the block
	// the source already touched, so buffer traffic hits.
	if s.Misses != 4 {
		t.Errorf("cold fire misses = %d, want 4 (stats %+v)", s.Misses, s)
	}
	// Second firing: state resident, buffers resident.
	if err := m.Fire(sdf.NodeID(0)); err != nil {
		t.Fatal(err)
	}
	m.Cache().ResetStats()
	if err := m.Fire(sdf.NodeID(1)); err != nil {
		t.Fatal(err)
	}
	if s := m.Cache().Stats(); s.Misses != 0 {
		t.Errorf("warm fire misses = %d, want 0", s.Misses)
	}
}

func TestStateBlocksNeverShared(t *testing.T) {
	// Module state regions must not share cache blocks with anything else;
	// large (>= B) buffers get exclusive blocks too. Sub-block buffers may
	// pack together.
	g := buildChain(t, 3, 5, 2)
	caps := unitCaps(g, 3)
	caps[1] = 32 // one large buffer (2 blocks)
	m, err := NewMachine(g, Config{Cache: testCache, Caps: caps})
	if err != nil {
		t.Fatal(err)
	}
	blk := testCache.Block
	type owner struct {
		id    int
		small bool
	}
	used := map[int64]owner{}
	claim := func(r cachesim.Region, id int, small bool) {
		if r.Size == 0 {
			return
		}
		for b := r.Base / blk; b <= (r.End()-1)/blk; b++ {
			if prev, ok := used[b]; ok && !(prev.small && small) {
				t.Fatalf("regions %d and %d share block %d", prev.id, id, b)
			}
			used[b] = owner{id, small}
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		claim(m.state[v], v, false)
	}
	for e := 0; e < g.NumEdges(); e++ {
		r := m.Buf(sdf.EdgeID(e)).Region()
		claim(r, g.NumNodes()+e, r.Size < blk)
	}
}

func TestValuesDeterministic(t *testing.T) {
	run := func() []int64 {
		g := buildChain(t, 0, 8, 8, 0)
		m, err := NewMachine(g, Config{Cache: testCache, Caps: unitCaps(g, 4), Values: true, CollectOutputs: 16})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 16; i++ {
			for v := 0; v < g.NumNodes(); v++ {
				if err := m.Fire(sdf.NodeID(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		return m.Outputs()
	}
	a, b := run(), run()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("outputs len %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("outputs diverge at %d", i)
		}
	}
}

func TestOutputOrderIndependentOfSchedule(t *testing.T) {
	// Kahn determinism: run the same chain with two different firing
	// interleavings and compare the sink streams.
	build := func() *Machine {
		g := buildChain(t, 0, 8, 8, 0)
		m, err := NewMachine(g, Config{Cache: testCache, Caps: unitCaps(g, 8), Values: true, CollectOutputs: 24})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	// Schedule 1: round-robin single firings.
	m1 := build()
	for m1.SinkItems() < 24 {
		for v := 0; v < 4; v++ {
			if m1.CanFire(sdf.NodeID(v)) {
				if err := m1.Fire(sdf.NodeID(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// Schedule 2: batched stage-by-stage.
	m2 := build()
	for m2.SinkItems() < 24 {
		for v := 0; v < 4; v++ {
			for m2.CanFire(sdf.NodeID(v)) {
				if err := m2.Fire(sdf.NodeID(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	a, b := m1.Outputs(), m2.Outputs()
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		t.Fatal("no outputs collected")
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at output %d", i)
		}
	}
}

func TestInhomogeneousRates(t *testing.T) {
	// src -2:1-> a -1:3-> sink : a fires 2x per src firing, sink consumes 3
	// at a time. reps: src 3, a 6, sink 2.
	b := sdf.NewBuilder("inh")
	src := b.AddNode("src", 0)
	a := b.AddNode("a", 4)
	sink := b.AddNode("sink", 0)
	b.Connect(src, a, 2, 1)
	b.Connect(a, sink, 1, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(g, Config{Cache: testCache, Caps: []int64{4, 6}, Values: true, CollectOutputs: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Fire(src); err != nil {
		t.Fatal(err)
	}
	if m.InputItems() != 2 {
		t.Errorf("input items = %d, want 2", m.InputItems())
	}
	if err := m.FireTimes(a, 2); err != nil {
		t.Fatal(err)
	}
	if m.CanFire(sink) {
		t.Error("sink should need 3 items, has 2")
	}
	if err := m.Fire(src); err != nil {
		t.Fatal(err)
	}
	if err := m.Fire(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Fire(sink); err != nil {
		t.Fatal(err)
	}
	if m.SinkItems() != 3 {
		t.Errorf("sink items = %d, want 3", m.SinkItems())
	}
	if err := m.CheckConservation(); err != nil {
		t.Error(err)
	}
}

func TestFireTimesErrorContext(t *testing.T) {
	g := buildChain(t, 0, 4, 0)
	m, err := NewMachine(g, Config{Cache: testCache, Caps: unitCaps(g, 2)})
	if err != nil {
		t.Fatal(err)
	}
	err = m.FireTimes(sdf.NodeID(0), 5)
	if err == nil {
		t.Fatal("FireTimes should fail when buffer fills")
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Errorf("err = %v, want ErrNoSpace", err)
	}
	if m.Fired(sdf.NodeID(0)) != 2 {
		t.Errorf("fired = %d, want 2", m.Fired(sdf.NodeID(0)))
	}
}

// blockStream collects a run-granular tap's stream, runs expanded.
type blockStream []int64

func (s *blockStream) RecordRun(base, n int64) {
	for end := base + n; base < end; base++ {
		*s = append(*s, base)
	}
}

// TestRecordingMachineMatchesSimulatingTap pins what a recording machine
// emits: the same firing sequence on a machine that simulates a cache,
// tapped through the cache's observer, must produce the same block
// sequence element for element — the recording is the stream a
// replacement policy would have seen, though no policy ran. A pipeline
// with multi-block states and wrapping buffers, and a split-join with
// unequal rates.
func TestRecordingMachineMatchesSimulatingTap(t *testing.T) {
	sj := sdf.NewBuilder("splitjoin")
	src := sj.AddNode("src", 0)
	split := sj.AddNode("split", 20)
	left := sj.AddNode("left", 100)
	right := sj.AddNode("right", 33)
	join := sj.AddNode("join", 16)
	sink := sj.AddNode("sink", 0)
	sj.Connect(src, split, 4, 4)
	sj.Connect(split, left, 3, 1)
	sj.Connect(split, right, 1, 1)
	sj.Connect(left, join, 1, 3)
	sj.Connect(right, join, 2, 2)
	sj.Connect(join, sink, 5, 5)
	splitJoin, err := sj.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		g   *sdf.Graph
		cap int64
	}{
		{buildChain(t, 0, 64, 200, 7, 0), 40}, // 40-item rings over 16-word blocks wrap mid-block
		{splitJoin, 24},
	} {
		var recorded, tapped blockStream
		rec, err := NewMachine(tc.g, Config{Cache: cachesim.Config{Block: testCache.Block}, Caps: unitCaps(tc.g, tc.cap), Recorder: &recorded})
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewMachine(tc.g, Config{Cache: testCache, Caps: unitCaps(tc.g, tc.cap)})
		if err != nil {
			t.Fatal(err)
		}
		sim.Cache().SetObserver(tapped.RecordRun)
		for round := 0; round < 60; round++ {
			for v := 0; v < tc.g.NumNodes(); v++ {
				id := sdf.NodeID(v)
				if rec.CanFire(id) != sim.CanFire(id) {
					t.Fatalf("%s: machines disagree on whether %d can fire", tc.g.Name(), v)
				}
				for k := 0; k < 1+round%3 && rec.CanFire(id); k++ {
					if err := rec.Fire(id); err != nil {
						t.Fatal(err)
					}
					if err := sim.Fire(id); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if len(recorded) == 0 || rec.SinkItems() == 0 {
			t.Fatalf("%s: nothing recorded (%d accesses, %d sink items)", tc.g.Name(), len(recorded), rec.SinkItems())
		}
		if len(recorded) != len(tapped) {
			t.Fatalf("%s: recorded %d accesses, the simulating cache's tap saw %d", tc.g.Name(), len(recorded), len(tapped))
		}
		for i := range recorded {
			if recorded[i] != tapped[i] {
				t.Fatalf("%s: access %d is block %d recorded, %d tapped", tc.g.Name(), i, recorded[i], tapped[i])
			}
		}
		// The recording machine simulated nothing: it counted, no more.
		if st := rec.Cache().Stats(); st.Accesses != int64(len(recorded)) || st.Hits+st.Misses != 0 {
			t.Fatalf("%s: recording machine's cache stats %+v, want %d accesses and no hits or misses", tc.g.Name(), st, len(recorded))
		}
		if st := sim.Cache().Stats(); st.Accesses != int64(len(tapped)) || st.Hits+st.Misses != st.Accesses {
			t.Fatalf("%s: simulating machine's cache stats %+v for %d tapped accesses", tc.g.Name(), st, len(tapped))
		}
	}
}

// TestAdvanceEqualsRunning: a machine advanced by k periods reads, in every
// count a measurement or check uses, like one that ran them — and then
// issues the same stream as it. Advance refuses what it cannot account for
// and, refusing, changes nothing.
func TestAdvanceEqualsRunning(t *testing.T) {
	g := buildChain(t, 0, 64, 40, 0)
	rounds := func(m *Machine, n int) {
		t.Helper()
		for ; n > 0; n-- {
			for v := 0; v < g.NumNodes(); v++ {
				if err := m.FireTimes(sdf.NodeID(v), 8); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	build := func(cfg Config) (*Machine, *blockStream) {
		var s blockStream
		cfg.Caps, cfg.TrackLatency = unitCaps(g, 16), true
		if cfg.Cache.Capacity == 0 {
			cfg.Cache, cfg.Recorder = cachesim.Config{Block: 16}, &s
		}
		m, err := NewMachine(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Warm-up leaves items in flight, so latencies are not zero.
		for v, n := range []int64{5, 3, 1} {
			if err := m.FireTimes(sdf.NodeID(v), n); err != nil {
				t.Fatal(err)
			}
		}
		return m, &s
	}
	const k = 5
	folded, fs := build(Config{})
	rounds(folded, 2) // two rounds of 8 are one lap of every 16-item ring
	key, c := folded.AppendState(nil), folded.Counters()
	rounds(folded, 2)
	if got := folded.AppendState(nil); !slices.Equal(got, key) {
		t.Fatalf("state %v did not recur after a period: %v", key, got)
	}
	if err := folded.Advance(c, k); err != nil {
		t.Fatal(err)
	}
	before := len(*fs)
	rounds(folded, 2)
	ran, rs := build(Config{})
	rounds(ran, 2*(2+k+1))

	if err := folded.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		if a, b := folded.Fired(sdf.NodeID(v)), ran.Fired(sdf.NodeID(v)); a != b {
			t.Errorf("node %d fired %d advanced, %d run", v, a, b)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		a, b := folded.Buf(sdf.EdgeID(e)), ran.Buf(sdf.EdgeID(e))
		if a.Pushed() != b.Pushed() || a.Popped() != b.Popped() || a.Len() != b.Len() {
			t.Errorf("edge %d: advanced %v pushed %d popped %d, run %v pushed %d popped %d", e, a, a.Pushed(), a.Popped(), b, b.Pushed(), b.Popped())
		}
	}
	am, ax := folded.Latency()
	bm, bx := ran.Latency()
	if folded.InputItems() != ran.InputItems() || folded.SinkItems() != ran.SinkItems() || am != bm || ax != bx || bx == 0 {
		t.Errorf("advanced items %d/%d latency %v/%d, run %d/%d %v/%d",
			folded.InputItems(), folded.SinkItems(), am, ax, ran.InputItems(), ran.SinkItems(), bm, bx)
	}
	if a, b := folded.Cache().Stats().Accesses, ran.Cache().Stats().Accesses; a != b || b != int64(len(*rs)) {
		t.Errorf("advanced machine counts %d accesses, run %d (recorded %d)", a, b, len(*rs))
	}
	last := (*fs)[before:]
	if i := len(*rs) - len(last); !slices.Equal(last, (*rs)[i:]) {
		t.Errorf("the period after Advance recorded a different stream")
	}

	// Refusals, each leaving the machine as it was.
	refuse := func(name string, m *Machine, c Counters, k int64, want string) {
		t.Helper()
		fired, acc := m.Fired(0), m.Cache().Stats().Accesses
		if err := m.Advance(c, k); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Advance = %v, want an error containing %q", name, err, want)
		}
		if m.Fired(0) != fired || m.Cache().Stats().Accesses != acc || m.CheckConservation() != nil {
			t.Errorf("%s: a refused Advance changed the machine", name)
		}
	}
	c = folded.Counters()
	rounds(folded, 2)
	refuse("overflow", folded, c, math.MaxInt64/4, "overflows int64")
	c = folded.Counters()
	rounds(folded, 1)
	refuse("half a lap", folded, c, 2, "whole laps")
	sim, _ := build(Config{Cache: testCache})
	c = sim.Counters()
	rounds(sim, 2)
	refuse("simulating cache", sim, c, 2, "cannot skip")
	vals, _ := build(Config{Values: true})
	c = vals.Counters()
	rounds(vals, 2)
	refuse("values", vals, c, 2, "item values")
}
