package partition

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"streamsched/internal/randgraph"
	"streamsched/internal/sdf"
)

// TestPropIntervalPartitionsAreWellOrdered checks the structural fact
// IntervalDP relies on: cutting ANY linear extension of ANY dag at ANY
// positions yields a well-ordered partition.
func TestPropIntervalPartitionsAreWellOrdered(t *testing.T) {
	f := func(seed int64, orderRaw, cutsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
			Layers: 1 + rng.Intn(3), Width: 1 + rng.Intn(4),
			StateMin: 1, StateMax: 16, ExtraEdges: rng.Intn(4),
		})
		if err != nil {
			return false
		}
		kinds := sdf.OrderKinds()
		order := g.LinearExtension(kinds[int(orderRaw)%len(kinds)])
		// Random cut positions.
		assign := make([]int, g.NumNodes())
		comp := 0
		for i, v := range order {
			assign[v] = comp
			if i+1 < len(order) && rng.Intn(3) == 0 {
				comp++
			}
		}
		p, err := New(g, assign)
		if err != nil {
			return false // would mean an interval partition was rejected
		}
		ok, err := g.QuotientAcyclic(p.Assign, p.K)
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropTheorem5ComponentsBounded checks Theorem 5's structural
// guarantee on random pipelines: every component of the constructive
// partition has state at most 8M and the partition is valid.
func TestPropTheorem5ComponentsBounded(t *testing.T) {
	f := func(seed int64, nRaw uint8, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int64(mRaw%64) + 8
		g, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
			Nodes: int(nRaw%30) + 3, StateMin: 0, StateMax: m, // s(v) <= M
			RateMax: 2,
		})
		if err != nil {
			return false
		}
		p, err := PipelineTheorem5(g, m)
		if err != nil {
			return false
		}
		return p.Validate(g, 8*m) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPropDPNeverWorseThanTheorem5AtSameBound checks optimality of the
// interval DP at Theorem 5's own component bound on random pipelines.
func TestPropDPNeverWorseThanTheorem5AtSameBound(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := int64(32)
		g, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
			Nodes: int(nRaw%30) + 3, StateMin: 0, StateMax: m, RateMax: 2,
		})
		if err != nil {
			return false
		}
		p5, err := PipelineTheorem5(g, m)
		if err != nil {
			return false
		}
		bound := p5.MaxComponentState(g)
		if bound < m {
			bound = m
		}
		dp, err := PipelineOptimalDP(g, bound)
		if err != nil {
			return false
		}
		return dp.BandwidthScaled(g) <= p5.BandwidthScaled(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropLocalSearchPreservesValidity checks that refinement never breaks
// well-orderedness or the state bound on random dags.
func TestPropLocalSearchPreservesValidity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, err := randgraph.RandomSplitJoin(rng, randgraph.SplitJoinSpec{
			Branches: 1 + rng.Intn(3), BranchDepth: 1 + rng.Intn(3),
			StateMin: 1, StateMax: 24, RateMax: 2,
		})
		if err != nil {
			return false
		}
		bound := int64(48)
		start, err := BestInterval(g, bound)
		if err != nil {
			return false
		}
		refined, err := LocalSearch(g, start, bound, seed, 0)
		if err != nil {
			return false
		}
		if refined.Validate(g, bound) != nil {
			return false
		}
		return refined.BandwidthScaled(g) <= start.BandwidthScaled(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropExactBeatsAllHeuristics cross-validates the exact DP against
// every heuristic on random small graphs: nothing may beat it.
func TestPropExactBeatsAllHeuristics(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
			Layers: 1 + rng.Intn(2), Width: 1 + rng.Intn(3),
			StateMin: 1, StateMax: 24, ExtraEdges: rng.Intn(2),
		})
		if err != nil {
			t.Fatal(err)
		}
		bound := int64(40)
		exact, err := Exact(g, bound)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lo := exact.BandwidthScaled(g)
		for name, build := range map[string]func() (*Partition, error){
			"interval":      func() (*Partition, error) { return BestInterval(g, bound) },
			"agglomerative": func() (*Partition, error) { return Agglomerative(g, bound) },
			"auto":          func() (*Partition, error) { return Auto(g, bound) },
		} {
			p, err := build()
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, name, err)
			}
			if p.BandwidthScaled(g) < lo {
				t.Errorf("seed %d: %s bandwidth %d beats exact %d",
					seed, name, p.BandwidthScaled(g), lo)
			}
		}
	}
}

// TestPropAutoDeterministic: the same graph and bound always partition the
// same way. LocalSearch once tried a node's candidate components in map
// order, so a node with two improving moves landed in either, and the
// partitioned schedule — and every number measured of it — varied between
// identical runs.
func TestPropAutoDeterministic(t *testing.T) {
	for seed := int64(-330); seed < -310; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
			Layers: 1 + rng.Intn(3), Width: 1 + rng.Intn(3), StateMin: 8, StateMax: 128, ExtraEdges: rng.Intn(3),
		})
		if err != nil {
			t.Fatal(err)
		}
		first, err := Auto(g, 128)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			p, err := Auto(g, 128)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(p.Assign, first.Assign) {
				t.Fatalf("seed %d: run %d partitioned %v, the first run %v", seed, i, p.Assign, first.Assign)
			}
		}
	}
}
