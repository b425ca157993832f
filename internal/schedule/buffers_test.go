package schedule

import (
	"testing"
)

func TestBufferUtilizationPipeline(t *testing.T) {
	g := uniformPipeline(t, 8, 64)
	uses, err := BufferUtilization(g, PartitionedPipeline{}, Env{M: 128, B: 16}, 600)
	if err != nil {
		t.Fatal(err)
	}
	if len(uses) != g.NumEdges() {
		t.Fatalf("got %d uses for %d edges", len(uses), g.NumEdges())
	}
	crossSeen := false
	for _, u := range uses {
		if u.HighWater > u.Cap {
			t.Errorf("edge %d: high water %d exceeds cap %d", u.Edge, u.HighWater, u.Cap)
		}
		if u.Cross {
			crossSeen = true
			if u.Utilization() <= 0 {
				t.Errorf("cross edge %d never used", u.Edge)
			}
		}
	}
	if !crossSeen {
		t.Error("no cross edges reported for an oversized pipeline")
	}
}

func TestBufferUtilizationValidation(t *testing.T) {
	g := uniformPipeline(t, 4, 8)
	if _, err := BufferUtilization(g, FlatTopo{}, testEnv, 0); err == nil {
		t.Error("probe=0 accepted")
	}
	// Baselines report no cross edges.
	uses, err := BufferUtilization(g, FlatTopo{}, testEnv, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range uses {
		if u.Cross {
			t.Error("flat plan has no cross edges")
		}
	}
}

func TestBufferUseUtilization(t *testing.T) {
	u := BufferUse{Cap: 10, HighWater: 5}
	if u.Utilization() != 0.5 {
		t.Errorf("utilization = %f", u.Utilization())
	}
	if (BufferUse{}).Utilization() != 0 {
		t.Error("zero-cap utilization should be 0")
	}
}

func TestPartitionedBatchMinT(t *testing.T) {
	// State 512 per module: two components under M=512, so cross-edge
	// buffers exist and scale with T.
	g := inhomogeneousPipeline(t, 512)
	env := Env{M: 512, B: 16}
	small := PartitionedBatch{MinT: 64}
	big := PartitionedBatch{MinT: 2048}
	if small.Name() == big.Name() || small.Name() == (PartitionedBatch{}).Name() {
		t.Error("MinT should be visible in the name")
	}
	planSmall, err := small.Prepare(g, env)
	if err != nil {
		t.Fatal(err)
	}
	planBig, err := big.Prepare(g, env)
	if err != nil {
		t.Fatal(err)
	}
	var sumSmall, sumBig int64
	for e := range planSmall.Caps {
		sumSmall += planSmall.Caps[e]
		sumBig += planBig.Caps[e]
	}
	if sumSmall >= sumBig {
		t.Errorf("MinT=64 buffers (%d) should be smaller than MinT=2048 (%d)", sumSmall, sumBig)
	}
	// Both still run correctly.
	for _, s := range []Scheduler{small, big} {
		outs := runPlan(t, g, s, env, 600, 48)
		if len(outs) < 48 {
			t.Errorf("%s produced %d outputs", s.Name(), len(outs))
		}
	}
}

func TestSmallerTCostsMoreMisses(t *testing.T) {
	// The E17 tradeoff at test scale: a tiny T reloads components more
	// often, so misses/item must not improve. Module state 512 each makes
	// the graph span two components under M=512.
	g := inhomogeneousPipeline(t, 512)
	env := Env{M: 512, B: 16}
	rSmall, err := Measure(g, PartitionedBatch{MinT: 32}, env, testCacheCfg(2*env.M), 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rBig, err := Measure(g, PartitionedBatch{MinT: 1024}, env, testCacheCfg(2*env.M), 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if rSmall.MissesPerItem < rBig.MissesPerItem {
		t.Errorf("T=32 (%.3f) beat T=1024 (%.3f) misses/item",
			rSmall.MissesPerItem, rBig.MissesPerItem)
	}
	if rSmall.BufferWords >= rBig.BufferWords {
		t.Errorf("T=32 buffers (%d) not below T=1024 (%d)", rSmall.BufferWords, rBig.BufferWords)
	}
}

func TestClassMissesInResult(t *testing.T) {
	g := uniformPipeline(t, 10, 128)
	env := Env{M: 256, B: 16}
	res, err := Measure(g, PartitionedPipeline{}, env, testCacheCfg(2*env.M), 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, m := range res.ClassMisses {
		total += m
	}
	if total != res.Stats.Misses {
		t.Errorf("class total %d != misses %d", total, res.Stats.Misses)
	}
	flat, err := Measure(g, FlatTopo{}, env, testCacheCfg(2*env.M), 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Flat pays mostly for state; partitioned mostly for cross buffers.
	if flat.ClassMisses[1] == 0 { // ClassState
		t.Error("flat should have state misses")
	}
	if cr := res.ClassMisses[2]; cr == 0 { // ClassCrossBuffer
		t.Error("partitioned should have cross-buffer misses")
	}
}

func TestPlanCrossEdgesMatchPartition(t *testing.T) {
	g := uniformPipeline(t, 8, 128)
	env := Env{M: 256, B: 16}
	plan, err := (PartitionedPipeline{}).Prepare(g, env)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.CrossEdges) == 0 {
		t.Fatal("no cross edges on oversized pipeline")
	}
	for _, e := range plan.CrossEdges {
		if plan.Caps[e] != 2*env.M {
			t.Errorf("cross edge %d cap = %d, want %d", e, plan.Caps[e], 2*env.M)
		}
	}
	if plan2, err := (FlatTopo{}).Prepare(g, env); err != nil || plan2.CrossEdges != nil {
		t.Error("flat plan should have nil cross edges")
	}
}

// inhomogeneousPipeline is shared with schedule_test.go; keep a distinct
// name-free helper here only if needed. (Defined in schedule_test.go.)
