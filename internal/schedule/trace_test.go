package schedule

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/obs"
	"streamsched/internal/randgraph"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// schedulersForGraph returns every scheduler the cross-validation should
// cover for a graph of this shape.
func schedulersForGraph(g *sdf.Graph) []Scheduler {
	return append(Baselines(), Partitioned(g, nil))
}

// TestMeasureCurveMatchesMeasure is the property test for the miss-curve
// engine: on random graphs, for every scheduler, the reuse-distance curve
// of one recorded run must equal the cache simulator's LRU miss count at
// every sampled capacity — same plan, same warm/measured window.
func TestMeasureCurveMatchesMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	build := func(i int) (*sdf.Graph, error) {
		switch i % 3 {
		case 0:
			return randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
				Nodes: 5 + rng.Intn(6), StateMin: 8, StateMax: 96, RateMax: 3,
			})
		case 1:
			return randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
				Layers: 2 + rng.Intn(2), Width: 2 + rng.Intn(2),
				StateMin: 8, StateMax: 96, ExtraEdges: 1,
			})
		default:
			return randgraph.RandomSplitJoin(rng, randgraph.SplitJoinSpec{
				Branches: 2 + rng.Intn(2), BranchDepth: 1 + rng.Intn(3),
				StateMin: 8, StateMax: 96, RateMax: 2,
			})
		}
	}
	trials := 9
	if testing.Short() {
		trials = 3
	}
	for i := 0; i < trials; i++ {
		g, err := build(i)
		if err != nil {
			t.Fatal(err)
		}
		env := Env{M: int64(128 << rng.Intn(3)), B: int64(8 << rng.Intn(2))}
		warm := int64(rng.Intn(200))
		measured := int64(200 + rng.Intn(400))
		for _, s := range schedulersForGraph(g) {
			cr, err := MeasureCurve(g, s, env, env.B, warm, measured)
			if err != nil {
				t.Fatalf("trial %d %s on %s: MeasureCurve: %v", i, s.Name(), g.Name(), err)
			}
			// Sample capacities around interesting scales: tiny, the
			// design size, the saturation knee, and beyond.
			satWords := cr.Curve.SaturationLines() * env.B
			caps := []int64{env.B, env.M / 2, env.M, 2 * env.M, satWords + env.B}
			for _, capWords := range caps {
				if capWords < env.B {
					continue
				}
				capWords -= capWords % env.B
				mr, err := Measure(g, s, env, cachesim.Config{Capacity: capWords, Block: env.B}, warm, measured)
				if err != nil {
					t.Fatalf("trial %d %s: Measure at %d: %v", i, s.Name(), capWords, err)
				}
				if got, want := cr.Curve.MissesAtCapacity(capWords, env.B), mr.Stats.Misses; got != want {
					t.Errorf("trial %d: %s on %s (M=%d B=%d warm=%d meas=%d) capacity %d: curve says %d misses, cachesim says %d",
						i, s.Name(), g.Name(), env.M, env.B, warm, measured, capWords, got, want)
				}
				if cr.InputItems != mr.InputItems {
					t.Errorf("trial %d: %s window mismatch: curve items %d, measure items %d",
						i, s.Name(), cr.InputItems, mr.InputItems)
				}
			}
		}
	}
}

// TestMeasureCurveWindowAccounting checks the windowed run bookkeeping
// against Measure on a fixed pipeline.
func TestMeasureCurveWindowAccounting(t *testing.T) {
	b := sdf.NewBuilder("acct")
	var ids []sdf.NodeID
	for i := 0; i < 6; i++ {
		st := int64(64)
		if i == 0 || i == 5 {
			st = 0
		}
		ids = append(ids, b.AddNode(fmt.Sprintf("m%d", i), st))
	}
	b.Chain(ids...)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	env := Env{M: 128, B: 16}
	cr, err := MeasureCurve(g, FlatTopo{}, env, env.B, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := Measure(g, FlatTopo{}, env, cachesim.Config{Capacity: 256, Block: 16}, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	if cr.SourceFired != mr.SourceFired || cr.InputItems != mr.InputItems || cr.SinkItems != mr.SinkItems {
		t.Fatalf("window bookkeeping diverged: curve (%d,%d,%d) vs measure (%d,%d,%d)",
			cr.SourceFired, cr.InputItems, cr.SinkItems, mr.SourceFired, mr.InputItems, mr.SinkItems)
	}
	if cr.BufferWords != mr.BufferWords {
		t.Fatalf("buffer words: curve %d, measure %d", cr.BufferWords, mr.BufferWords)
	}
	if cr.Curve.Accesses != mr.Stats.Accesses {
		t.Fatalf("window accesses: curve %d, cachesim %d", cr.Curve.Accesses, mr.Stats.Accesses)
	}
	// MeasureCurve(..., 0 warm) must count the whole trace.
	cr0, err := MeasureCurve(g, FlatTopo{}, env, env.B, 0, 500)
	if err != nil {
		t.Fatal(err)
	}
	if cr0.Curve.Accesses != cr0.TraceLen {
		t.Fatalf("unwarmed curve counted %d of %d accesses", cr0.Curve.Accesses, cr0.TraceLen)
	}
}

// TestSweepCurves exercises the pooled sweep over all schedulers.
func TestSweepCurves(t *testing.T) {
	b := sdf.NewBuilder("sweep")
	var ids []sdf.NodeID
	for i := 0; i < 8; i++ {
		st := int64(48)
		if i == 0 || i == 7 {
			st = 0
		}
		ids = append(ids, b.AddNode(fmt.Sprintf("m%d", i), st))
	}
	b.Chain(ids...)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	env := Env{M: 128, B: 16}
	scheds := schedulersForGraph(g)
	out, err := Sweep(scheds, func(s Scheduler) (*CurveResult, error) {
		return MeasureCurve(g, s, env, env.B, 64, 256)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(scheds) {
		t.Fatalf("sweep returned %d results for %d schedulers", len(out), len(scheds))
	}
	for i, r := range out {
		if r.Scheduler != scheds[i].Name() {
			t.Fatalf("result %d is %q's, want %q's", i, r.Scheduler, scheds[i].Name())
		}
		if r.Curve.Accesses == 0 {
			t.Fatalf("scheduler %s recorded an empty window", r.Scheduler)
		}
	}
}

// TestSweepNamesFirstFailureInSchedulerOrder: a scheduler that cannot
// plan fails the sweep with its own name even when a later scheduler
// fails first on the clock, and every scheduler after it still runs.
func TestSweepNamesFirstFailureInSchedulerOrder(t *testing.T) {
	g, err := randgraph.RandomPipeline(rand.New(rand.NewSource(5)), randgraph.PipelineSpec{
		Nodes: 6, StateMin: 16, StateMax: 64, RateMax: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	scheds := []Scheduler{FlatTopo{}, Scaled{S: 0}, DemandDriven{}, Scaled{S: -1}, Partitioned(g, nil)}
	// One worker per scheduler, so the failing scheduler can wait for
	// every other job to finish before it fails.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(len(scheds)))
	var others sync.WaitGroup
	others.Add(len(scheds) - 1)
	var ran atomic.Int64
	env := Env{M: 128, B: 16}
	_, err = Sweep(scheds, func(s Scheduler) (*CurveResult, error) {
		if s.Name() == "scaled(s=0)" {
			others.Wait()
		} else {
			defer others.Done()
		}
		ran.Add(1)
		return MeasureCurve(g, s, env, env.B, 16, 64)
	})
	if err == nil || !strings.HasPrefix(err.Error(), "scaled(s=0): ") || !errors.Is(err, ErrUnsupported) {
		t.Fatalf("sweep error = %v, want scaled(s=0)'s ErrUnsupported", err)
	}
	if got := ran.Load(); got != int64(len(scheds)) {
		t.Fatalf("%d of %d schedulers ran", got, len(scheds))
	}
}

// TestMeasureCurveOrgsSharesFullyAssociativeStack checks that the
// fully-associative curve MeasureCurveOrgs always profiles and a grid's
// own Sets=1 spec cost one Fenwick stack between them: the Fenwick
// operation count of the grid run equals the curve-only run's, and both
// are non-zero (the stack did outgrow its list form). Both run unfolded:
// the counter counts touched work, and the grid's FIFO points would keep
// it from folding while the curve alone folds.
func TestMeasureCurveOrgsSharesFullyAssociativeStack(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	g, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{Nodes: 24, StateMin: 128, StateMax: 256, RateMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Every family but Sets=1 is shallow enough to stay off the Fenwick
	// form, so the counter isolates the fully-associative stacks.
	specs, _, err := trace.GridSpecs([]int64{1024, 4096}, 16, []int64{0, 1, 8}, true)
	if err != nil {
		t.Fatal(err)
	}
	fenwickOps := func(orgs []trace.OrgSpec) int64 {
		reg := obs.NewRegistry()
		env := Env{M: 512, B: 16, Metrics: reg}
		if _, err := MeasureCurveOrgs(g, unstepped{FlatTopo{}}, env, env.B, 64, 256, orgs); err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot().Counters["trace.profile.timeline.ops"]
	}
	alone := fenwickOps(nil)
	if alone == 0 {
		t.Fatal("fully-associative stack never reached its Fenwick form; grow the graph")
	}
	if withGrid := fenwickOps(specs); withGrid != alone {
		t.Fatalf("grid with a Sets=1 spec cost %d Fenwick ops, the fully-associative curve alone %d", withGrid, alone)
	}
}

// TestMetricCountersMatchSimulator pins the metric contract of a profiled
// sweep on a private registry: trace.accesses is the sum of the recorded
// trace lengths, trace.profile.accesses the sum of the window accesses the
// cache simulator counts for the same schedules, trace.profile.passes one
// per scheduler, and the trace.profile histogram one observation per pass;
// the simulator's own exec.accesses, exec.misses and exec.source.firings
// are its results' sums.
// It holds on a FIFO grid, which never folds, and on an LRU-only grid whose
// stepped windows must fold: a folded period counts its accesses as if it
// had run.
func TestMetricCountersMatchSimulator(t *testing.T) {
	g, err := randgraph.RandomPipeline(rand.New(rand.NewSource(22)), randgraph.PipelineSpec{
		Nodes: 12, StateMin: 16, StateMax: 128, RateMax: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	scheds := []Scheduler{FlatTopo{}, Scaled{S: 4}, Partitioned(g, nil)}
	const warm, measured = 256, 1024
	for _, fifo := range []bool{true, false} {
		specs, _, err := trace.GridSpecs([]int64{256, 1024, 4096}, 16, []int64{0, 1, 4}, fifo)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		env := Env{M: 256, B: 16, Metrics: reg}
		var traceLen, simAccesses, simMisses, simFired int64
		results, err := Sweep(scheds, func(s Scheduler) (*CurveResult, error) {
			return MeasureCurveOrgs(g, s, env, env.B, warm, measured, specs)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			traceLen += r.TraceLen
		}
		simReg := obs.NewRegistry()
		for _, s := range scheds {
			res, err := Measure(g, s, Env{M: env.M, B: env.B, Metrics: simReg}, cachesim.Config{Capacity: 1024, Block: env.B}, warm, measured)
			if err != nil {
				t.Fatal(err)
			}
			simAccesses += res.Stats.Accesses
			simMisses += res.Stats.Misses
			simFired += res.SourceFired
		}
		sim := simReg.Snapshot()
		snap := reg.Snapshot()
		passes := snap.Counters["trace.profile.passes"]
		for _, c := range []struct {
			name      string
			got, want int64
		}{
			{"trace.accesses", snap.Counters["trace.accesses"], traceLen},
			{"trace.profile.accesses", snap.Counters["trace.profile.accesses"], simAccesses},
			{"trace.profile.passes", passes, int64(len(scheds))},
			{"trace.profile histogram count", snap.Histograms["trace.profile"].Count, passes},
			{"exec.accesses", sim.Counters["exec.accesses"], simAccesses},
			{"exec.misses", sim.Counters["exec.misses"], simMisses},
			{"exec.source.firings", sim.Counters["exec.source.firings"], simFired},
		} {
			if c.got != c.want {
				t.Errorf("fifo=%v: %s = %d, want %d", fifo, c.name, c.got, c.want)
			}
		}
		if folded := snap.Counters["schedule.window.folded_periods"]; fifo != (folded == 0) {
			t.Errorf("fifo=%v: %d folded periods", fifo, folded)
		}
	}
}
