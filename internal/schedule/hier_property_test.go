package schedule

// Property tests for the one-pass hierarchy curves: on random graphs,
// MeasureHier's (L1, L2) grid must equal a pointwise MeasureHierPoint run
// through the exact two-level simulator, point for point, for every
// scheduler. The grids cover direct-mapped and fully-associative L1 edge
// cases, FIFO L1s, LRU and FIFO L2s, a coarser L2 block, and the
// degenerate single-line (Capacity == Block) L1.

import (
	"math/rand"
	"reflect"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/hierarchy"
	"streamsched/internal/randgraph"
	"streamsched/internal/sdf"
)

// hierLv abbreviates a Level literal.
func hierLv(capacity, block, ways int64, pol cachesim.Policy) hierarchy.Level {
	return hierarchy.Level{Capacity: capacity, Block: block, Ways: ways, Policy: pol}
}

// hierCase checks every grid point of one scheduler on one graph: a single
// MeasureHier call against one MeasureHierPoint execution per point.
func hierCase(t *testing.T, g *sdf.Graph, s Scheduler, env Env, spec hierarchy.HierSpec, warm, meas int64) {
	t.Helper()
	hr, err := MeasureHier(g, s, env, spec, warm, meas)
	if err != nil {
		t.Fatalf("%s MeasureHier: %v", s.Name(), err)
	}
	for i := range spec.L1s {
		for j := range spec.L2s {
			pt, err := MeasureHierPoint(g, s, env, spec.Config(i, j), warm, meas)
			if err != nil {
				t.Fatalf("%s MeasureHierPoint(%v, %v): %v", s.Name(), spec.L1s[i], spec.L2s[j], err)
			}
			l1, l2 := hr.Curves.Point(i, j)
			if l1 != pt.L1.Misses || l2 != pt.L2.Misses {
				t.Errorf("%s L1=%v L2=%v: curve (%d, %d), simulator (%d, %d)",
					s.Name(), spec.L1s[i], spec.L2s[j], l1, l2, pt.L1.Misses, pt.L2.Misses)
			}
			if hr.Curves.Accesses != pt.L1.Accesses {
				t.Errorf("%s: curve accesses %d, simulator %d", s.Name(), hr.Curves.Accesses, pt.L1.Accesses)
			}
		}
	}
}

func TestPropHierCurvesMatchSimulatorOnRandomPipelines(t *testing.T) {
	env := Env{M: 256, B: 16}
	spec := hierarchy.HierSpec{
		Block: 16,
		L1s: []hierarchy.Level{
			hierLv(256, 16, 1, cachesim.LRU),  // direct-mapped
			hierLv(256, 16, 0, cachesim.LRU),  // fully associative
			hierLv(512, 16, 4, cachesim.FIFO), // FIFO L1
			hierLv(512, 16, 1, cachesim.LRU),  // E20's larger L1s
			hierLv(512, 16, 0, cachesim.LRU),
		},
		L2s: []hierarchy.Level{
			hierLv(2048, 16, 0, cachesim.LRU),
			hierLv(2048, 16, 8, cachesim.FIFO),
			hierLv(4096, 64, 0, cachesim.LRU),  // coarse block
			hierLv(4096, 64, 8, cachesim.LRU),  // E20's set-associative
			hierLv(4096, 64, 4, cachesim.FIFO), // coarse-block L2s
		},
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
			Nodes: 6 + rng.Intn(10), StateMin: 16, StateMax: 160, RateMax: 3,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range []Scheduler{FlatTopo{}, Scaled{S: 3}, PartitionedPipeline{}} {
			hierCase(t, g, s, env, spec, 96, 384)
		}
	}
	// E20's input: its graph, design point and schedulers, large enough
	// that the coarse-block L2s see more than compulsory misses.
	g := uniformPipeline(t, 30, 128)
	for _, s := range []Scheduler{FlatTopo{}, Scaled{S: 4}, Partitioned(g, nil)} {
		hierCase(t, g, s, Env{M: 512, B: 16}, spec, 128, 512)
	}
}

func TestPropHierCurvesMatchSimulatorOnRandomDags(t *testing.T) {
	env := Env{M: 256, B: 16}
	spec := hierarchy.HierSpec{
		Block: 16,
		L1s: []hierarchy.Level{
			hierLv(256, 16, 1, cachesim.LRU),
			hierLv(256, 16, 0, cachesim.LRU),
		},
		L2s: []hierarchy.Level{
			hierLv(1024, 16, 4, cachesim.LRU),
			hierLv(1024, 16, 4, cachesim.FIFO),
		},
	}
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(200 + seed))
		g, err := randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
			Layers: 2 + rng.Intn(3), Width: 1 + rng.Intn(3),
			StateMin: 16, StateMax: 128, ExtraEdges: 2,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		scheds := []Scheduler{FlatTopo{}, DemandDriven{}, PartitionedHomogeneous{}}
		if seed == 0 {
			scheds = append(Baselines(), PartitionedHomogeneous{}) // one graph under every baseline scheduler too
		}
		for _, s := range scheds {
			hierCase(t, g, s, env, spec, 96, 384)
		}
	}
}

// TestPropHierSingleLineL1 pins the degenerate L1: Capacity == Block, one
// line, where every block change is an L1 miss and the L2 sees almost the
// raw trace.
func TestPropHierSingleLineL1(t *testing.T) {
	env := Env{M: 64, B: 16}
	spec := hierarchy.HierSpec{
		Block: 16,
		L1s:   []hierarchy.Level{hierLv(16, 16, 1, cachesim.LRU), hierLv(16, 16, 0, cachesim.FIFO)},
		L2s:   []hierarchy.Level{hierLv(512, 16, 0, cachesim.LRU), hierLv(512, 16, 2, cachesim.FIFO)},
	}
	rng := rand.New(rand.NewSource(42))
	g, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
		Nodes: 8, StateMin: 8, StateMax: 64, RateMax: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{FlatTopo{}, PartitionedPipeline{}} {
		hierCase(t, g, s, env, spec, 64, 256)
	}
}

// TestPropProfileJobsHierInvariantOnRandomGraphs pins the deprecated
// Env.ProfileJobs/DecodeJobs: MeasureHier ignores them, so any values
// return the zero values' curves on any graph.
func TestPropProfileJobsHierInvariantOnRandomGraphs(t *testing.T) {
	spec := hierarchy.HierSpec{
		Block: 16,
		L1s:   []hierarchy.Level{hierLv(256, 16, 1, cachesim.LRU), hierLv(512, 16, 4, cachesim.FIFO)},
		L2s:   []hierarchy.Level{hierLv(2048, 16, 8, cachesim.FIFO), hierLv(4096, 64, 0, cachesim.LRU)},
	}
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(800 + seed))
		g, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
			Nodes: 6 + rng.Intn(8), StateMin: 16, StateMax: 160, RateMax: 3,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := MeasureHier(g, Scaled{S: 3}, Env{M: 256, B: 16}, spec, 96, 384)
		if err != nil {
			t.Fatal(err)
		}
		for _, jd := range [][2]int{{1, 1}, {4, 4}} {
			got, err := MeasureHier(g, Scaled{S: 3}, Env{M: 256, B: 16, ProfileJobs: jd[0], DecodeJobs: jd[1]}, spec, 96, 384)
			if err != nil || !reflect.DeepEqual(got.Curves, ref.Curves) {
				t.Errorf("seed %d: ProfileJobs=%d DecodeJobs=%d changed MeasureHier's curves (err %v)", seed, jd[0], jd[1], err)
			}
		}
	}
}
