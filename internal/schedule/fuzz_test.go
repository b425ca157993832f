package schedule

import (
	"math/rand"
	"testing"

	"streamsched/internal/randgraph"
	"streamsched/internal/sdf"
)

// FuzzWindowFold drives the window fold with arbitrary graphs, schedulers,
// windows and recorder shapes: MeasureCurveOrgs folded must equal the
// unfolded pass field for field (foldWindow), and only a stepped plan
// recorded by LRU-only profilers may fold. The seed corpus is
// testdata/fuzz/FuzzWindowFold; windows are capped so a case stays small.
func FuzzWindowFold(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, shape, sched, specs, mexp uint8, warm, measure uint16) {
		rng := rand.New(rand.NewSource(seed))
		var g *sdf.Graph
		var err error
		switch shape % 3 {
		case 0:
			g, err = randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
				Layers: 1 + rng.Intn(3), Width: 1 + rng.Intn(3), StateMin: 8, StateMax: 128, ExtraEdges: rng.Intn(3),
			})
		case 1:
			g, err = randgraph.RandomSplitJoin(rng, randgraph.SplitJoinSpec{
				Branches: 1 + rng.Intn(3), BranchDepth: 1 + rng.Intn(4), StateMin: 8, StateMax: 128, RateMax: 1 + rng.Int63n(3),
			})
		default:
			g, err = randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
				Nodes: 2 + rng.Intn(8), StateMin: 8, StateMax: 128, RateMax: 1 + rng.Int63n(3),
			})
		}
		if err != nil {
			t.Fatal(err)
		}
		env := Env{M: 32 << (mexp % 3), B: 16}
		scheds := []Scheduler{Partitioned(g, nil), FlatTopo{}, Scaled{S: 2}, DemandDriven{}, KohliGreedy{}, PartitionedBatch{}}
		s := scheds[int(sched)%len(scheds)]
		plan, err := s.Prepare(g, env)
		if err != nil {
			t.Skip() // the scheduler does not take this shape
		}
		shapes := foldSpecs(t, env.B)
		sp := shapes[int(specs)%len(shapes)]
		n, err := foldWindow(t, g, s, env, int64(warm%2048), 1+int64(measure%4096), sp)
		if err == nil && n > 0 && (plan.Step == 0 || hasFIFO(sp)) {
			t.Fatalf("%s/%s: folded %d periods of a window that cannot fold", g.Name(), s.Name(), n)
		}
	})
}
