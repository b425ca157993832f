package schedule

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/partition"
	"streamsched/internal/sdf"
)

// uniformPipeline builds a unit-rate pipeline of n modules with the given
// per-module state (source and sink get zero state).
func uniformPipeline(t *testing.T, n int, state int64) *sdf.Graph {
	t.Helper()
	b := sdf.NewBuilder("pipe")
	ids := make([]sdf.NodeID, n)
	for i := range ids {
		s := state
		if i == 0 || i == n-1 {
			s = 0
		}
		ids[i] = b.AddNode("m", s)
	}
	b.Chain(ids...)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// splitJoin builds src -> split -> {w1..wk} -> join -> sink (homogeneous).
func splitJoin(t *testing.T, k int, state int64) *sdf.Graph {
	t.Helper()
	b := sdf.NewBuilder("splitjoin")
	src := b.AddNode("src", 0)
	split := b.AddNode("split", state)
	join := b.AddNode("join", state)
	sink := b.AddNode("sink", 0)
	b.Connect(src, split, 1, 1)
	for i := 0; i < k; i++ {
		w := b.AddNode("w", state)
		b.Connect(split, w, 1, 1)
		b.Connect(w, join, 1, 1)
	}
	b.Connect(join, sink, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// inhomogeneousPipeline builds src -2:1-> a -3:2-> b -1:3-> sink.
func inhomogeneousPipeline(t *testing.T, state int64) *sdf.Graph {
	t.Helper()
	b := sdf.NewBuilder("inh")
	src := b.AddNode("src", 0)
	a := b.AddNode("a", state)
	bb := b.AddNode("b", state)
	sink := b.AddNode("sink", 0)
	b.Connect(src, a, 2, 1)
	b.Connect(a, bb, 3, 2)
	b.Connect(bb, sink, 1, 3)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

var testEnv = Env{M: 256, B: 16}

func testCacheCfg(capacity int64) cachesim.Config {
	return cachesim.Config{Capacity: capacity, Block: 16}
}

// runPlan prepares s on g and drives a value-collecting machine to the
// source target; returns collected sink outputs.
func runPlan(t *testing.T, g *sdf.Graph, s Scheduler, env Env, target, collect int64) []int64 {
	t.Helper()
	plan, err := s.Prepare(g, env)
	if err != nil {
		t.Fatalf("%s prepare: %v", s.Name(), err)
	}
	m, err := exec.NewMachine(g, exec.Config{
		Cache: testCacheCfg(4 * env.M), Caps: plan.Caps,
		Values: true, CollectOutputs: collect,
	})
	if err != nil {
		t.Fatalf("%s machine: %v", s.Name(), err)
	}
	if err := plan.Runner.Run(m, target); err != nil {
		t.Fatalf("%s run: %v", s.Name(), err)
	}
	if m.SourceFirings() < target {
		t.Fatalf("%s fired source %d < target %d", s.Name(), m.SourceFirings(), target)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatalf("%s conservation: %v", s.Name(), err)
	}
	return m.Outputs()
}

func allSchedulers() []Scheduler {
	return []Scheduler{
		FlatTopo{}, Scaled{S: 4}, DemandDriven{}, KohliGreedy{},
		PartitionedBatch{},
	}
}

func TestSchedulersRunHomogeneousPipeline(t *testing.T) {
	g := uniformPipeline(t, 8, 64)
	scheds := append(allSchedulers(), PartitionedPipeline{}, PartitionedHomogeneous{})
	for _, s := range scheds {
		outs := runPlan(t, g, s, testEnv, 600, 128)
		if len(outs) < 128 {
			t.Errorf("%s produced %d outputs, want >= 128", s.Name(), len(outs))
		}
	}
}

func TestSchedulersAgreeOnOutputs(t *testing.T) {
	cases := []struct {
		name   string
		g      *sdf.Graph
		scheds []Scheduler
	}{
		{"pipeline", uniformPipeline(t, 6, 32),
			append(allSchedulers(), PartitionedPipeline{}, PartitionedHomogeneous{})},
		{"splitjoin", splitJoin(t, 3, 32),
			append(allSchedulers(), PartitionedHomogeneous{})},
		{"inhomogeneous", inhomogeneousPipeline(t, 32),
			[]Scheduler{FlatTopo{}, Scaled{S: 2}, DemandDriven{}, KohliGreedy{}, PartitionedBatch{}, PartitionedPipeline{}}},
	}
	for _, tc := range cases {
		var ref []int64
		var refName string
		for _, s := range tc.scheds {
			outs := runPlan(t, tc.g, s, testEnv, 600, 96)
			if ref == nil {
				ref, refName = outs, s.Name()
				continue
			}
			n := len(ref)
			if len(outs) < n {
				n = len(outs)
			}
			if n < 48 {
				t.Fatalf("%s/%s: only %d comparable outputs", tc.name, s.Name(), n)
			}
			for i := 0; i < n; i++ {
				if outs[i] != ref[i] {
					t.Fatalf("%s: %s and %s diverge at output %d", tc.name, refName, s.Name(), i)
					break
				}
			}
		}
	}
}

func TestPartitionedBeatsFlatOnBigPipeline(t *testing.T) {
	// 16 modules of state M/2: total state 8x the cache. The partitioned
	// schedule must be at least 10x better per item.
	env := Env{M: 512, B: 16}
	g := uniformPipeline(t, 18, env.M/2)
	cache := testCacheCfg(2 * env.M)

	flat, err := Measure(g, FlatTopo{}, env, cache, 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Measure(g, PartitionedPipeline{}, env, cache, 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if part.MissesPerItem*10 > flat.MissesPerItem {
		t.Errorf("partitioned %.3f vs flat %.3f misses/item: want >= 10x gap",
			part.MissesPerItem, flat.MissesPerItem)
	}
	if part.SourceFired < 1024 {
		t.Errorf("measured window too short: %d", part.SourceFired)
	}
}

func TestPartitionedHomogeneousOnSplitJoin(t *testing.T) {
	env := Env{M: 256, B: 16}
	g := splitJoin(t, 4, 128) // total state 6*128 = 768 > M
	cache := testCacheCfg(2 * env.M)
	part, err := Measure(g, PartitionedHomogeneous{}, env, cache, 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := Measure(g, FlatTopo{}, env, cache, 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if part.MissesPerItem >= flat.MissesPerItem {
		t.Errorf("partitioned %.3f should beat flat %.3f on oversized split-join",
			part.MissesPerItem, flat.MissesPerItem)
	}
}

func TestPartitionedBatchQuotas(t *testing.T) {
	g := inhomogeneousPipeline(t, 16)
	env := Env{M: 64, B: 16}
	s := PartitionedBatch{}
	plan, err := s.Prepare(g, env)
	if err != nil {
		t.Fatal(err)
	}
	m, err := exec.NewMachine(g, exec.Config{Cache: testCacheCfg(4 * env.M), Caps: plan.Caps})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Runner.Run(m, 1); err != nil {
		t.Fatal(err)
	}
	// One batch: T = reps(src)·ceil(M/reps(src)). reps: src=1,a=2,b=3,sink=1.
	// T0=1, mult=64, so src fires 64, a 128, b 192, sink 64.
	if got := m.SourceFirings(); got != 64 {
		t.Errorf("source fired %d, want 64", got)
	}
	aID, _ := g.NodeByName("a")
	bID, _ := g.NodeByName("b")
	sinkID, _ := g.NodeByName("sink")
	if m.Fired(aID) != 128 || m.Fired(bID) != 192 || m.Fired(sinkID) != 64 {
		t.Errorf("firings = a:%d b:%d sink:%d, want 128,192,64",
			m.Fired(aID), m.Fired(bID), m.Fired(sinkID))
	}
	// All buffers drained at batch end.
	for e := 0; e < g.NumEdges(); e++ {
		if l := m.Buf(sdf.EdgeID(e)).Len(); l != 0 {
			t.Errorf("edge %d holds %d items after batch", e, l)
		}
	}
}

func TestUnsupportedCombos(t *testing.T) {
	d := splitJoin(t, 2, 8)
	if _, err := (PartitionedPipeline{}).Prepare(d, testEnv); !errors.Is(err, ErrUnsupported) {
		t.Errorf("pipeline scheduler on dag: %v", err)
	}
	inh := inhomogeneousPipeline(t, 8)
	if _, err := (PartitionedHomogeneous{}).Prepare(inh, testEnv); !errors.Is(err, ErrUnsupported) {
		t.Errorf("homog scheduler on inhomogeneous: %v", err)
	}
	if _, err := (Scaled{S: 0}).Prepare(inh, testEnv); !errors.Is(err, ErrUnsupported) {
		t.Errorf("scaled s=0: %v", err)
	}
	if _, err := (KohliGreedy{}).Prepare(inh, Env{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("kohli without M: %v", err)
	}
	if _, err := (PartitionedBatch{}).Prepare(inh, Env{}); !errors.Is(err, ErrUnsupported) {
		t.Errorf("batch without M: %v", err)
	}
}

// TestScaledRefusesOverflowingScale: a scale whose buffers do not fit in
// int64 is refused, naming the scale and the edge. The product used to wrap
// negative, be replaced by the edge's minBuf, and come back as a plan.
func TestScaledRefusesOverflowingScale(t *testing.T) {
	b := sdf.NewBuilder("ac")
	a, c := b.AddNode("a", 0), b.AddNode("c", 0)
	b.Connect(a, c, 2, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	plan, err := (Scaled{S: 1 << 61}).Prepare(g, testEnv)
	if err != nil || plan.Caps[0] != 1<<62 || plan.Step != 1<<61 {
		t.Fatalf("scale 2^61: plan %+v, %v; want caps [2^62], step 2^61", plan, err)
	}
	for _, s := range []int64{1 << 62, 1<<62 + 1} {
		plan, err := (Scaled{S: s}).Prepare(g, testEnv)
		if !errors.Is(err, ErrUnsupported) {
			t.Fatalf("scale %d: plan %+v, %v; want ErrUnsupported", s, plan, err)
		}
		if msg := err.Error(); !strings.Contains(msg, fmt.Sprint(s)) || !strings.Contains(msg, "edge 0 (a -> c)") {
			t.Errorf("scale %d: error %q names neither the scale nor the edge", s, msg)
		}
	}
}

func TestSuppliedPartitionUsed(t *testing.T) {
	g := uniformPipeline(t, 8, 64)
	p, err := partition.PipelineOptimalDP(g, 128)
	if err != nil {
		t.Fatal(err)
	}
	s := PartitionedPipeline{P: p}
	plan, err := s.Prepare(g, Env{M: 128, B: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Cross-edge buffers must be 2M where the partition cuts.
	cross := p.CrossEdges(g)
	if len(cross) == 0 {
		t.Fatal("expected cuts")
	}
	for _, e := range cross {
		if plan.Caps[e] != 256 {
			t.Errorf("cross edge %d cap = %d, want 256", e, plan.Caps[e])
		}
	}
	// Invalid supplied partition is rejected.
	bad := &partition.Partition{Assign: make([]int, g.NumNodes()), K: 1}
	for i := range bad.Assign {
		bad.Assign[i] = i % 2 // alternating: not well ordered for a chain
	}
	bad.K = 2
	if _, err := (PartitionedPipeline{P: bad}).Prepare(g, Env{M: 128, B: 16}); err == nil {
		t.Error("invalid partition accepted")
	}
}

func TestMeasureBasics(t *testing.T) {
	g := uniformPipeline(t, 6, 32)
	res, err := Measure(g, FlatTopo{}, testEnv, testCacheCfg(512), 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheduler != "flat-topo" || res.Graph != "pipe" {
		t.Errorf("labels: %+v", res)
	}
	if res.SourceFired < 256 || res.InputItems < 256 {
		t.Errorf("window too small: %+v", res)
	}
	if res.MissesPerItem < 0 {
		t.Error("negative misses per item")
	}
	if res.BufferWords <= 0 {
		t.Error("buffer accounting missing")
	}
	if _, err := Measure(g, FlatTopo{}, testEnv, testCacheCfg(512), 0, 0); err == nil {
		t.Error("measured=0 accepted")
	}
}

func TestScaledReducesMissesUntilSpill(t *testing.T) {
	// With state 64 per module and M=256, scaling amortizes state loads:
	// s=8 should beat s=1 on misses/item.
	env := Env{M: 256, B: 16}
	g := uniformPipeline(t, 10, 64)
	cache := testCacheCfg(env.M)
	r1, err := Measure(g, Scaled{S: 1}, env, cache, 256, 512)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Measure(g, Scaled{S: 8}, env, cache, 256, 512)
	if err != nil {
		t.Fatal(err)
	}
	if r8.MissesPerItem >= r1.MissesPerItem {
		t.Errorf("scaling did not help: s=1 %.3f, s=8 %.3f", r1.MissesPerItem, r8.MissesPerItem)
	}
}

func TestDemandDrivenMinimalBuffers(t *testing.T) {
	g := inhomogeneousPipeline(t, 8)
	plan, err := (DemandDriven{}).Prepare(g, testEnv)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < g.NumEdges(); e++ {
		if plan.Caps[e] != g.MinBuf(sdf.EdgeID(e)) {
			t.Errorf("edge %d cap = %d, want minBuf %d", e, plan.Caps[e], g.MinBuf(sdf.EdgeID(e)))
		}
	}
}

func TestBatchEqualsHomogeneousOnUnitRates(t *testing.T) {
	// On a homogeneous graph the batch scheduler must also work and give
	// outputs consistent with the homogeneous scheduler.
	g := splitJoin(t, 2, 64)
	a := runPlan(t, g, PartitionedBatch{}, testEnv, 600, 64)
	b := runPlan(t, g, PartitionedHomogeneous{}, testEnv, 600, 64)
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n < 32 {
		t.Fatalf("too few outputs: %d", n)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("batch and homog diverge at %d", i)
		}
	}
}
