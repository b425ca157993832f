package lowerbound

import (
	"fmt"
	"math/rand"
	"testing"

	"streamsched/internal/partition"
	"streamsched/internal/randgraph"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
)

func bigPipeline(t *testing.T, n int, state int64) *sdf.Graph {
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

func TestPipelineBoundBasics(t *testing.T) {
	// 18 modules of 128 words, M=256: segments of state > 512 hold 5
	// modules each; each contributes gain 1.
	g := bigPipeline(t, 20, 128)
	bound, err := Pipeline(g, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bound.Exact {
		t.Error("pipeline bound should be exact")
	}
	if bound.Segments < 2 {
		t.Errorf("segments = %d, want >= 2", bound.Segments)
	}
	wantPer := bound.Bandwidth.Float() / 16
	if bound.PerSourceFiring != wantPer {
		t.Errorf("PerSourceFiring = %v, want %v", bound.PerSourceFiring, wantPer)
	}
	if bound.ScaledBandwidth != int64(bound.Segments) {
		t.Errorf("homogeneous: scaled bw %d should equal segment count %d",
			bound.ScaledBandwidth, bound.Segments)
	}
}

func TestPipelineBoundZeroWhenGraphFits(t *testing.T) {
	g := bigPipeline(t, 6, 16) // total 64 words
	bound, err := Pipeline(g, 256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if bound.ScaledBandwidth != 0 {
		t.Errorf("bound = %+v, want zero for cache-resident graph", bound)
	}
}

func TestPipelineBoundErrors(t *testing.T) {
	g := bigPipeline(t, 4, 8)
	if _, err := Pipeline(g, 0, 16); err == nil {
		t.Error("M=0 accepted")
	}
	if _, err := Pipeline(g, 16, 0); err == nil {
		t.Error("B=0 accepted")
	}
}

func TestDagExactBound(t *testing.T) {
	// Diamond with big middle nodes: with M=4 (3M=12) the two middle nodes
	// (8 words each) cannot share a component, so at least 2 edges cross.
	b := sdf.NewBuilder("d")
	src := b.AddNode("src", 0)
	a := b.AddNode("a", 8)
	c := b.AddNode("b", 8)
	sink := b.AddNode("sink", 0)
	b.Connect(src, a, 1, 1)
	b.Connect(src, c, 1, 1)
	b.Connect(a, sink, 1, 1)
	b.Connect(c, sink, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bound, err := DagExact(g, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !bound.Exact {
		t.Error("exact bound not marked exact")
	}
	if bound.ScaledBandwidth < 2 {
		t.Errorf("scaled bw = %d, want >= 2", bound.ScaledBandwidth)
	}
	h, err := DagHeuristic(g, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if h.Exact {
		t.Error("heuristic bound marked exact")
	}
	if h.ScaledBandwidth < bound.ScaledBandwidth {
		t.Error("heuristic bandwidth below exact minimum")
	}
}

// TestEverySchedulerRespectsPipelineBound is the empirical heart of
// Theorem 3: at every cache capacity c from M/4 to 8M, the measured misses
// per source firing of every scheduler must be at least a constant
// fraction of the bound at c. The inputs are a hand-built 18-stage
// pipeline and seeded random pipelines; one recorded trace per (graph,
// scheduler) answers every capacity. The oracle must also reject
// everySegment, a bound that over-counts.
func TestEverySchedulerRespectsPipelineBound(t *testing.T) {
	env := schedule.Env{M: 256, B: 16}
	type input struct {
		name string
		g    *sdf.Graph
	}
	big := bigPipeline(t, 18, 128) // total state 2048 = 8M
	if bound, err := Pipeline(big, env.M, env.B); err != nil || bound.PerSourceFiring <= 0 {
		t.Fatalf("vacuous bound %+v, %v", bound, err)
	}
	inputs := []input{{"bigPipeline", big}}
	seeds := int64(40)
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
			Nodes: 8 + rng.Intn(12), StateMin: 16, StateMax: env.M, RateMax: 3,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{fmt.Sprintf("random pipeline seed %d", seed), g})
	}
	caught := 0 // points at which everySegment's bound exceeds the measured misses
	for _, in := range inputs {
		for _, s := range append(schedule.Baselines(), schedule.Partitioned(in.g, nil)) {
			cr, err := schedule.MeasureCurve(in.g, s, env, env.B, 512, 1024)
			if err != nil {
				t.Fatalf("%s, %s: %v", in.name, s.Name(), err)
			}
			for _, c := range []int64{env.M / 4, env.M / 2, env.M, 2 * env.M, 4 * env.M, 8 * env.M} {
				perFiring := float64(cr.Curve.MissesAtCapacity(c, env.B)) / float64(cr.SourceFired)
				bound, err := Pipeline(in.g, c, env.B)
				if err != nil {
					t.Fatalf("%s, c=%d: %v", in.name, c, err)
				}
				// The theorem's constant is below 1; empirically even 1x
				// holds, but we assert a conservative 0.25x to keep the
				// test robust.
				if perFiring < 0.25*bound.PerSourceFiring {
					t.Errorf("%s, %s, c=%d: %.4f misses/firing below bound fraction of %.4f",
						in.name, s.Name(), c, perFiring, bound.PerSourceFiring)
				}
				mutant, err := everySegment(in.g, c, env.B)
				if err != nil {
					t.Fatalf("%s, c=%d: %v", in.name, c, err)
				}
				if perFiring < 0.25*mutant.PerSourceFiring {
					caught++
				}
			}
		}
	}
	if caught == 0 {
		t.Error("the oracle accepts everySegment's bound, which counts segments under 2M state")
	}
}

// TestEverySchedulerRespectsDagBound is the dag form of the pipeline
// oracle: on seeded layered and split-join dags small enough for the
// exact minBW₃ (Theorems 7 and 10), every baseline and the partitioned
// scheduler miss at least a quarter of DagExact's bound per source firing
// at every capacity of the pipeline test's grid.
func TestEverySchedulerRespectsDagBound(t *testing.T) {
	env := schedule.Env{M: 256, B: 16}
	seeds := int64(40)
	caps := []int64{env.M / 4, env.M / 2, env.M, 2 * env.M, 4 * env.M, 8 * env.M}
	if testing.Short() {
		seeds, caps = 10, []int64{env.M / 4, env.M / 2, env.M}
	}
	// Every module fits 3c at the grid's smallest capacity, M/4, so minBW₃
	// exists at every point.
	maxState := 3 * env.M / 4
	type input struct {
		name string
		g    *sdf.Graph
	}
	var inputs []input
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
			Layers: 2 + rng.Intn(2), Width: 2 + rng.Intn(2), StateMin: 16, StateMax: maxState, ExtraEdges: rng.Intn(3),
		})
		if err != nil {
			t.Fatalf("layered dag seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{fmt.Sprintf("layered dag seed %d", seed), g})
		g, err = randgraph.RandomSplitJoin(rng, randgraph.SplitJoinSpec{
			Branches: 2 + rng.Intn(2), BranchDepth: 1 + rng.Intn(3), StateMin: 16, StateMax: maxState, RateMax: 3,
		})
		if err != nil {
			t.Fatalf("split-join seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{fmt.Sprintf("split-join seed %d", seed), g})
	}
	positive := 0 // grid points where the bound says anything
	for _, in := range inputs {
		bounds := make([]Bound, len(caps))
		for i, c := range caps {
			var err error
			if bounds[i], err = DagExact(in.g, c, env.B); err != nil {
				t.Fatalf("%s, c=%d: %v", in.name, c, err)
			}
		}
		for _, bd := range bounds {
			if bd.PerSourceFiring > 0 {
				positive++
			}
		}
		for _, s := range append(schedule.Baselines(), schedule.Partitioned(in.g, nil)) {
			cr, err := schedule.MeasureCurve(in.g, s, env, env.B, 512, 1024)
			if err != nil {
				t.Fatalf("%s, %s: %v", in.name, s.Name(), err)
			}
			for i, c := range caps {
				perFiring := float64(cr.Curve.MissesAtCapacity(c, env.B)) / float64(cr.SourceFired)
				if perFiring < 0.25*bounds[i].PerSourceFiring {
					t.Errorf("%s, %s, c=%d: %.4f misses/firing below a quarter of the exact dag bound %.4f",
						in.name, s.Name(), c, perFiring, bounds[i].PerSourceFiring)
				}
			}
		}
	}
	t.Logf("the exact bound is positive at %d of %d grid points", positive, len(inputs)*len(caps))
	if positive < len(inputs) {
		t.Errorf("the exact bound is positive at only %d of %d grid points", positive, len(inputs)*len(caps))
	}
}

// everySegment is Pipeline mutated to count every Theorem 5 segment, whatever
// its state: a wrong bound that TestEverySchedulerRespectsPipelineBound must
// catch.
func everySegment(g *sdf.Graph, m, b int64) (Bound, error) {
	segs, err := partition.Theorem5Segments(g, m)
	if err != nil {
		return Bound{}, err
	}
	var scaled int64
	for _, s := range segs {
		if s.GainMin >= 0 {
			scaled += partition.EdgeGainScaled(g, s.GainMin)
		}
	}
	return finish(g, scaled, len(segs), b, true)
}

// sandwichC is the constant of the Theorem 5 sandwich as measured: the worst
// ratio of the partitioned schedule's misses on a 2M, 4M or 8M cache to the
// lower bound at M, over TestPartitionedWithinConstantOfBound's whole
// sweep. The committed sweep's worst is 38.69, random pipeline seed 7 at
// 2M (its rates reach 3, so a segment boundary carries up to 9x the
// bound's per-segment gain); the hand-built 18-stage pipeline reads 5.58,
// the worst dag 13.38.
const sandwichC = 39

// TestPartitionedWithinConstantOfBound is the Theorem 5 sandwich: wherever
// the theorem's preconditions hold — every module's state fits M, and the
// lower bound at M is positive (for a dag: DagExact's minBW₃ exists and is
// positive) — the partitioned schedule planned for M misses at most
// sandwichC times that bound per source firing on a cache of 2M, 4M and
// 8M, all read off one fully-associative curve. The inputs are the
// hand-built 18-stage pipeline and seeded random pipelines, layered dags
// and split-join dags. The check must also reject the schedule built on a
// partitioner that allows 2M of state per component.
func TestPartitionedWithinConstantOfBound(t *testing.T) {
	env := schedule.Env{M: 256, B: 16}
	seeds := int64(40)
	caps := []int64{2 * env.M, 4 * env.M, 8 * env.M}
	if testing.Short() {
		seeds, caps = 10, caps[:2] // seed 7 holds the sweep's worst ratio
	}
	type input struct {
		name string
		g    *sdf.Graph
		dag  bool
	}
	inputs := []input{{"bigPipeline", bigPipeline(t, 18, 128), false}}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
			Nodes: 8 + rng.Intn(12), StateMin: 16, StateMax: env.M, RateMax: 3,
		})
		if err != nil {
			t.Fatalf("pipeline seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{fmt.Sprintf("random pipeline seed %d", seed), g, false})
		rng = rand.New(rand.NewSource(seed))
		if g, err = randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
			Layers: 2 + rng.Intn(3), Width: 2 + rng.Intn(2), StateMin: 16, StateMax: env.M, ExtraEdges: rng.Intn(3),
		}); err != nil {
			t.Fatalf("layered dag seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{fmt.Sprintf("layered dag seed %d", seed), g, true})
		if g, err = randgraph.RandomSplitJoin(rng, randgraph.SplitJoinSpec{
			Branches: 2 + rng.Intn(3), BranchDepth: 1 + rng.Intn(3), StateMin: 16, StateMax: env.M, RateMax: 3,
		}); err != nil {
			t.Fatalf("split-join seed %d: %v", seed, err)
		}
		inputs = append(inputs, input{fmt.Sprintf("split-join seed %d", seed), g, true})
	}
	// worstRatio measures the schedule on partition p (nil: the
	// scheduler's own, M-bounded) against the bound.
	worstRatio := func(in input, p *partition.Partition, bound float64) (worst float64, at int64) {
		s := schedule.Partitioned(in.g, p)
		cr, err := schedule.MeasureCurve(in.g, s, env, env.B, 2048, 4096)
		if err != nil {
			t.Fatalf("%s, %s: %v", in.name, s.Name(), err)
		}
		for _, c := range caps {
			perFiring := float64(cr.Curve.MissesAtCapacity(c, env.B)) / float64(cr.SourceFired)
			if r := perFiring / bound; r > worst {
				worst, at = r, c
			}
		}
		return worst, at
	}
	checked, caught := 0, 0
	var worst float64
	for _, in := range inputs {
		var bound Bound
		var err error
		if in.dag {
			if in.g.NumNodes() > partition.MaxExactNodes {
				continue // no exact minBW₃
			}
			bound, err = DagExact(in.g, env.M, env.B)
		} else {
			bound, err = Pipeline(in.g, env.M, env.B)
		}
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if bound.PerSourceFiring <= 0 {
			continue // the graph fits the bound's cache: nothing to sandwich
		}
		checked++
		r, c := worstRatio(in, nil, bound.PerSourceFiring)
		worst = max(worst, r)
		if r > sandwichC {
			t.Errorf("%s: partitioned misses %.2f times the lower bound at M on a %dM cache, want at most %d",
				in.name, r, c/env.M, sandwichC)
		}
		var loose *partition.Partition
		if in.dag {
			loose, err = partition.Auto(in.g, 2*env.M)
		} else {
			loose, err = partition.PipelineOptimalDP(in.g, 2*env.M)
		}
		if err != nil {
			t.Fatalf("%s: 2M partition: %v", in.name, err)
		}
		if r, _ := worstRatio(in, loose, bound.PerSourceFiring); r > sandwichC {
			caught++
		}
	}
	t.Logf("%d of %d inputs meet the preconditions; worst ratio %.2f; the 2M partitioner breaks the constant on %d",
		checked, len(inputs), worst, caught)
	if checked < len(inputs)/2 {
		t.Errorf("only %d of %d inputs meet Theorem 5's preconditions", checked, len(inputs))
	}
	if caught == 0 {
		t.Error("the sandwich accepts a partitioner that allows 2M of state per component")
	}
}
