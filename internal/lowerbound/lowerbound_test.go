package lowerbound

import (
	"fmt"
	"math/rand"
	"testing"

	"streamsched/internal/cachesim"
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

// TestPartitionedWithinConstantOfBound is the Theorem 5 sandwich: the
// partitioned schedule on an O(M) cache must be within a constant factor
// of the lower bound.
func TestPartitionedWithinConstantOfBound(t *testing.T) {
	env := schedule.Env{M: 256, B: 16}
	g := bigPipeline(t, 18, 128)
	bound, err := Pipeline(g, env.M, env.B)
	if err != nil {
		t.Fatal(err)
	}
	cache := cachesim.Config{Capacity: 4 * env.M, Block: env.B} // O(1) augmentation
	res, err := schedule.Measure(g, schedule.PartitionedPipeline{}, env, cache, 2048, 4096)
	if err != nil {
		t.Fatal(err)
	}
	perFiring := float64(res.Stats.Misses) / float64(res.SourceFired)
	ratio := perFiring / bound.PerSourceFiring
	// Theory promises O(1); in practice the constant lands well under 32.
	if ratio > 32 {
		t.Errorf("partitioned/bound ratio = %.1f, want O(1) (<= 32)", ratio)
	}
}
