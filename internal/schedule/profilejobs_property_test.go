package schedule

// Property tests for the jobs knobs at the measurement API:
// Env.ProfileJobs and Env.DecodeJobs are purely speed knobs, so
// MeasureCurveOrgs (which profiles inline and ignores them) and
// MeasureHier (which shards its units across them) must return
// byte-identical results for any (worker, decode worker) counts on any
// graph. These run the full record→profile path end to end (random
// pipelines and dags, set-associative + FIFO organisations, a two-level
// grid), complementing the trace-level oracle tests and the
// hierarchy-level equivalence tests that replay one shared log under many
// worker counts.

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/hierarchy"
	"streamsched/internal/randgraph"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// profileJobsVariants is the (jobs, decodejobs) sweep: the sequential
// reference, the smallest genuinely-sharded pool with the smallest
// parallel decode, whatever this machine's CPU count resolves to (the
// zero value's meaning for both knobs), and a decode width past the chunk
// count so the chunk cap engages.
func profileJobsVariants() [][2]int {
	return [][2]int{{1, 1}, {2, 2}, {runtime.NumCPU(), runtime.NumCPU()}, {2, 16}}
}

// orgsAtJobs measures g once per worker count and returns the CurveResult
// fields that profiling determines (the curve and organisation profiles).
// Schedulers are deterministic, so the recorded traces are identical runs
// and any divergence is the sharded engine's fault.
func orgsAtJobs(t *testing.T, g *sdf.Graph, s Scheduler, env Env, specs []trace.OrgSpec, warm, meas int64, jobs, djobs int) (*trace.MissCurve, []*trace.OrgCurves) {
	t.Helper()
	env.ProfileJobs = jobs
	env.DecodeJobs = djobs
	cr, err := MeasureCurveOrgs(g, s, env, env.B, warm, meas, specs)
	if err != nil {
		t.Fatalf("%s MeasureCurveOrgs(jobs=%d,decodejobs=%d): %v", s.Name(), jobs, djobs, err)
	}
	return cr.Curve, cr.Orgs
}

func TestPropProfileJobsOrgsInvariantOnRandomGraphs(t *testing.T) {
	env := Env{M: 256, B: 16}
	specs, _, err := trace.GridSpecs([]int64{512, 1024}, env.B, []int64{1, 2, 4, 0}, true)
	if err != nil {
		t.Fatalf("GridSpecs: %v", err)
	}
	seeds := int64(4)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		var g *sdf.Graph
		var err error
		scheds := []Scheduler{FlatTopo{}}
		if seed%2 == 0 {
			g, err = randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
				Nodes: 6 + rng.Intn(10), StateMin: 16, StateMax: 160, RateMax: 3,
			})
			scheds = append(scheds, PartitionedPipeline{})
		} else {
			g, err = randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
				Layers: 2 + rng.Intn(3), Width: 1 + rng.Intn(3),
				StateMin: 16, StateMax: 128, ExtraEdges: 2,
			})
			scheds = append(scheds, PartitionedHomogeneous{})
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range scheds {
			refCurve, refOrgs := orgsAtJobs(t, g, s, env, specs, 96, 384, 1, 1)
			for _, v := range profileJobsVariants()[1:] {
				curve, orgs := orgsAtJobs(t, g, s, env, specs, 96, 384, v[0], v[1])
				if !reflect.DeepEqual(curve, refCurve) {
					t.Errorf("seed %d %s: jobs=%d decodejobs=%d miss curve differs from sequential", seed, s.Name(), v[0], v[1])
				}
				if !reflect.DeepEqual(orgs, refOrgs) {
					t.Errorf("seed %d %s: jobs=%d decodejobs=%d organisation curves differ from sequential", seed, s.Name(), v[0], v[1])
				}
			}
		}
	}
}

func TestPropProfileJobsHierInvariantOnRandomGraphs(t *testing.T) {
	env := Env{M: 256, B: 16}
	spec := hierarchy.HierSpec{
		Block: 16,
		L1s: []hierarchy.Level{
			hierLv(256, 16, 1, cachesim.LRU),
			hierLv(256, 16, 0, cachesim.LRU),
			hierLv(512, 16, 4, cachesim.FIFO),
		},
		L2s: []hierarchy.Level{
			hierLv(2048, 16, 0, cachesim.LRU),
			hierLv(2048, 16, 8, cachesim.FIFO),
			hierLv(4096, 64, 0, cachesim.LRU),
		},
	}
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(800 + seed))
		var g *sdf.Graph
		var err error
		if seed%2 == 0 {
			g, err = randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
				Nodes: 6 + rng.Intn(8), StateMin: 16, StateMax: 160, RateMax: 3,
			})
		} else {
			g, err = randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
				Layers: 2 + rng.Intn(3), Width: 1 + rng.Intn(3),
				StateMin: 16, StateMax: 128, ExtraEdges: 2,
			})
		}
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range []Scheduler{FlatTopo{}, Scaled{S: 3}} {
			measure := func(jobs, djobs int) *hierarchy.HierCurves {
				e := env
				e.ProfileJobs = jobs
				e.DecodeJobs = djobs
				hr, err := MeasureHier(g, s, e, spec, 96, 384)
				if err != nil {
					t.Fatalf("%s MeasureHier(jobs=%d,decodejobs=%d): %v", s.Name(), jobs, djobs, err)
				}
				return hr.Curves
			}
			ref := measure(1, 1)
			for _, v := range profileJobsVariants()[1:] {
				if got := measure(v[0], v[1]); !reflect.DeepEqual(got, ref) {
					t.Errorf("seed %d %s: jobs=%d decodejobs=%d hierarchy curves differ from sequential", seed, s.Name(), v[0], v[1])
				}
			}
		}
	}
}
