package schedule

// Property tests for the one-pass organisation curves: on random graphs,
// MeasureCurveOrgs' set-associative LRU and FIFO miss counts must equal
// the cache simulator's, point for point, for every scheduler — the
// trace-based reproduction of E12's robustness ablation is exact, not an
// approximation. Ways 1 (direct-mapped), small associativities, full
// associativity, and the degenerate Capacity==Block cache are all covered.

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/obs"
	"streamsched/internal/randgraph"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// orgGeom is one (capacity, ways) geometry under test; ways 0 means fully
// associative.
type orgGeom struct {
	capacity int64
	ways     int64
}

// orgCase checks every geometry × {LRU, FIFO} of one scheduler on one
// graph: a single MeasureCurveOrgs call against one Measure call per
// point.
func orgCase(t *testing.T, g *sdf.Graph, s Scheduler, env Env, geoms []orgGeom, warm, meas int64) {
	t.Helper()
	caps := make([]int64, len(geoms))
	ways := make([]int64, len(geoms))
	for i, gm := range geoms {
		caps[i], ways[i] = gm.capacity, gm.ways
	}
	// The cross product GridSpecs builds is a superset of the geometry
	// list; harmless, every requested point is still covered.
	specs, specIdx, err := trace.GridSpecs(caps, env.B, ways, true)
	if err != nil {
		t.Fatalf("GridSpecs: %v", err)
	}
	cr, err := MeasureCurveOrgs(g, s, env, env.B, warm, meas, specs)
	if err != nil {
		t.Fatalf("%s MeasureCurveOrgs: %v", s.Name(), err)
	}
	for _, gm := range geoms {
		sets, _ := trace.SetsFor(gm.capacity, env.B, gm.ways)
		oc := cr.Orgs[specIdx[sets]]
		eff := trace.EffectiveWays(gm.capacity, env.B, gm.ways)
		for _, pol := range []cachesim.Policy{cachesim.LRU, cachesim.FIFO} {
			cfg := cachesim.Config{Capacity: gm.capacity, Block: env.B, Ways: int(gm.ways), Policy: pol}
			res, err := Measure(g, s, env, cfg, warm, meas)
			if err != nil {
				t.Fatalf("%s Measure(%+v): %v", s.Name(), cfg, err)
			}
			got, ok := oc.Misses(eff, pol == cachesim.FIFO)
			if !ok {
				t.Fatalf("%s: FIFO ways %d not replayed", s.Name(), eff)
			}
			if got != res.Stats.Misses {
				t.Errorf("%s %s cap=%d ways=%d: curve %d, simulator %d",
					s.Name(), pol, gm.capacity, gm.ways, got, res.Stats.Misses)
			}
		}
	}
}

func TestPropOrgCurvesMatchSimulatorOnRandomPipelines(t *testing.T) {
	env := Env{M: 256, B: 16}
	// 512 words = 32 lines: divisible by 1, 2, 4; 1024 words = 64 lines.
	geoms := []orgGeom{
		{512, 1}, {512, 2}, {512, 4}, {512, 0},
		{1024, 1}, {1024, 2}, {1024, 4}, {1024, 0},
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
			Nodes: 6 + rng.Intn(10), StateMin: 16, StateMax: 160, RateMax: 3,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, s := range []Scheduler{FlatTopo{}, Scaled{S: 3}, PartitionedPipeline{}} {
			orgCase(t, g, s, env, geoms, 96, 384)
		}
	}
	// E12's input: its graph, design point and schedulers under its whole
	// grid, caps 128..4096 x ways {0, 8, 4, 1}, where every family with 8
	// ways keeps request-bounded rows. The equality is exact at any window
	// length, so a short one does.
	var e12 []orgGeom
	for _, c := range []int64{128, 256, 512, 1024, 2048, 4096} {
		for _, w := range []int64{0, 8, 4, 1} {
			e12 = append(e12, orgGeom{c, w})
		}
	}
	g := uniformPipeline(t, 34, 128)
	for _, s := range []Scheduler{FlatTopo{}, Scaled{S: 4}, PartitionedPipeline{}} {
		orgCase(t, g, s, Env{M: 512, B: 16}, e12, 128, 512)
	}
}

func TestPropOrgCurvesMatchSimulatorOnRandomDags(t *testing.T) {
	env := Env{M: 256, B: 16}
	geoms := []orgGeom{
		{512, 1}, {512, 2}, {512, 4}, {512, 0},
	}
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
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
			orgCase(t, g, s, env, geoms, 96, 384)
		}
		if seed < 2 {
			foldCases(t, g, []Scheduler{PartitionedHomogeneous{}, FlatTopo{}, Scaled{S: 3}, KohliGreedy{}})
		}
	}
	// The other two shapes: the batch scheduler and the half-full pipeline
	// rule fold too.
	rng := rand.New(rand.NewSource(104))
	inh, err := randgraph.RandomSplitJoin(rng, randgraph.SplitJoinSpec{Branches: 2, BranchDepth: 3, StateMin: 16, StateMax: 96, RateMax: 3})
	if err != nil {
		t.Fatal(err)
	}
	foldCases(t, inh, []Scheduler{PartitionedBatch{}, DemandDriven{}})
	pipe, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{Nodes: 8, StateMin: 16, StateMax: 160, RateMax: 3})
	if err != nil {
		t.Fatal(err)
	}
	foldCases(t, pipe, []Scheduler{PartitionedPipeline{}})
}

// unstepped hides its scheduler's plan step, so the window runs every
// firing: the unfolded pass a folded measurement must equal.
type unstepped struct{ Scheduler }

func (u unstepped) Prepare(g *sdf.Graph, env Env) (*Plan, error) {
	p, err := u.Scheduler.Prepare(g, env)
	if p != nil {
		p.Step = 0
	}
	return p, err
}

// foldWindow measures one window folded where it can be and unfolded
// (unstepped), requires every field of the two results — Run header,
// curve, organisation curves, trace length — to be identical, and returns
// how many periods the folded pass counted without running them. A window
// the schedule cannot run must fail both ways; its error is returned.
func foldWindow(t *testing.T, g *sdf.Graph, s Scheduler, env Env, warm, measured int64, specs []trace.OrgSpec) (int64, error) {
	t.Helper()
	reg := obs.NewRegistry()
	folded := env
	folded.Metrics = reg
	got, gerr := MeasureCurveOrgs(g, s, folded, env.B, warm, measured, specs)
	want, err := MeasureCurveOrgs(g, unstepped{s}, env, env.B, warm, measured, specs)
	if (gerr == nil) != (err == nil) {
		t.Fatalf("%s/%s warm %d measure %d: folded error %v, unfolded %v", g.Name(), s.Name(), warm, measured, gerr, err)
	}
	if err != nil {
		return 0, err
	}
	n := reg.Counter("schedule.window.folded_periods").Value()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s/%s warm %d measure %d specs %v: %d folded periods changed the result\nfolded   %+v\nunfolded %+v",
			g.Name(), s.Name(), warm, measured, specs, n, got.Run, want.Run)
	}
	if !hasFIFO(specs) {
		if w := wantFolds(t, g, s, env, warm, measured); n != w {
			t.Errorf("%s/%s warm %d measure %d: folded %d periods, the first recurrence leaves %d whole periods",
				g.Name(), s.Name(), warm, measured, n, w)
		}
	}
	return n, nil
}

// discard is a recorder that keeps nothing.
type discard struct{}

func (discard) RecordRun(base, n int64) {}

// wantFolds re-derives a fold from the machine alone: from the window's
// mark it steps plan.Step firings at a time while the window looks (up to
// a third of the window), compares each step's recurrence key with the
// key at the last saved step — steps 0, 1, 3, 7, …, Brent's — and at the
// first match returns how many whole periods fit between that recurrence
// and the window's end. That is what a window that records one period and
// runs no second one counts without running; 0 when it cannot fold.
func wantFolds(t *testing.T, g *sdf.Graph, s Scheduler, env Env, warm, measured int64) int64 {
	t.Helper()
	plan, err := s.Prepare(g, env)
	if err != nil || plan.Step <= 0 {
		return 0
	}
	m, err := exec.NewMachine(g, exec.Config{
		Cache: cachesim.Config{Block: env.B}, Caps: plan.Caps, TrackLatency: g.Source() != g.Sink(), Recorder: discard{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if warm > 0 {
		if err := plan.Runner.Run(m, warm); err != nil {
			t.Fatal(err)
		}
	}
	start := m.SourceFirings()
	end := start + measured
	keys, fired := [][]int64{m.AppendState(nil)}, []int64{start}
	saved := 0
	for j := 1; m.SourceFirings() <= end-plan.Step && m.SourceFirings()-start < (end-start)/3; j++ {
		if err := plan.Runner.Run(m, m.SourceFirings()+plan.Step); err != nil {
			t.Fatal(err)
		}
		keys, fired = append(keys, m.AppendState(nil)), append(fired, m.SourceFirings())
		if slices.Equal(keys[j], keys[saved]) {
			return (end - fired[j]) / (fired[j] - fired[saved])
		}
		if j == 2*saved+1 {
			saved = j
		}
	}
	return 0
}

// foldSpecs are the recorder shapes a fold is checked under: the
// fully-associative curve alone, with set-associative LRU families whose
// way counts span the row/marker crossover, with request-bounded rows
// (GridSpecs' grid), with FIFO
// replicas, which never fold, with marker lists of 1,024-line caches
// (two and four sets: a Sets=1 list would join the curve's unbounded
// family), and with direct-mapped FIFO points, which are LRU points and
// fold.
func foldSpecs(t *testing.T, block int64) [][]trace.OrgSpec {
	bounded, _, err := trace.GridSpecs([]int64{512, 1024}, block, []int64{1, 4, 0}, false)
	if err != nil {
		t.Fatal(err)
	}
	fifo, _, err := trace.GridSpecs([]int64{512}, block, []int64{2, 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	markers := []trace.OrgSpec{{Sets: 2, LRUWays: []int64{512, 32}}, {Sets: 4, LRUWays: []int64{256}}}
	direct, _, err := trace.GridSpecs([]int64{256, 1024}, block, []int64{1}, true)
	if err != nil {
		t.Fatal(err)
	}
	spanning := []int64{1, 2, 3, 5, 8, 16, 40, 100}
	return [][]trace.OrgSpec{nil, {{Sets: 4, LRUWays: spanning}, {Sets: 16, LRUWays: spanning}}, bounded, fifo, markers, direct}
}

// hasFIFO reports whether any spec replays FIFO at more than one way, which
// takes a FIFO replica and keeps a window from folding. A one-way FIFO
// point is the one-way LRU point.
func hasFIFO(specs []trace.OrgSpec) bool {
	for _, s := range specs {
		for _, w := range s.FIFOWays {
			if w > 1 {
				return true
			}
		}
	}
	return false
}

// foldCases runs windows of 3–8 batches of T = M source firings after no,
// one and one and a half batches of warm-up, none a whole number of
// periods long, and one of 24 batches — long enough to find a period of
// three batches, as the batch scheduler's ring offsets and the half-full
// pipeline's cross-edge rings can take — under every foldSpecs shape.
// Every result must equal the unfolded pass; a scheduler with a step must
// fold somewhere, and nothing else may.
func foldCases(t *testing.T, g *sdf.Graph, scheds []Scheduler) {
	t.Helper()
	env := Env{M: 128, B: 16}
	T := env.M
	windows := [][2]int64{{0, 3*T + T/3}, {T, 8*T - 5}, {3 * T / 2, 5*T + 7}, {T / 2, 24*T + 3}}
	for _, s := range scheds {
		plan, err := s.Prepare(g, env)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		var folded int64
		for _, w := range windows {
			for _, specs := range foldSpecs(t, env.B) {
				n, err := foldWindow(t, g, s, env, w[0], w[1], specs)
				if err != nil {
					t.Fatalf("%s/%s: %v", g.Name(), s.Name(), err)
				}
				if n > 0 && (plan.Step == 0 || hasFIFO(specs)) {
					t.Errorf("%s/%s: folded %d periods of a window that cannot fold", g.Name(), s.Name(), n)
				}
				folded += n
			}
		}
		if plan.Step > 0 && folded == 0 {
			t.Errorf("%s/%s: a stepped schedule never folded", g.Name(), s.Name())
		}
	}
}

// TestPropOrgCurvesCapacityEqualsBlock pins the degenerate single-line
// cache: Capacity == Block, where direct-mapped, 1-way and fully
// associative all coincide and every replacement policy is trivial.
func TestPropOrgCurvesCapacityEqualsBlock(t *testing.T) {
	env := Env{M: 64, B: 16}
	geoms := []orgGeom{{16, 1}, {16, 0}}
	rng := rand.New(rand.NewSource(42))
	g, err := randgraph.RandomPipeline(rng, randgraph.PipelineSpec{
		Nodes: 8, StateMin: 8, StateMax: 64, RateMax: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{FlatTopo{}, PartitionedPipeline{}} {
		orgCase(t, g, s, env, geoms, 64, 256)
	}
}

// TestPropProfileJobsOrgsInvariantOnRandomGraphs pins the deprecated
// Env.ProfileJobs/DecodeJobs: MeasureCurveOrgs ignores them, so any values
// return the zero values' curves on any graph.
func TestPropProfileJobsOrgsInvariantOnRandomGraphs(t *testing.T) {
	specs, _, err := trace.GridSpecs([]int64{512, 1024}, 16, []int64{1, 4, 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 2; seed++ {
		rng := rand.New(rand.NewSource(700 + seed))
		g, err := randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{
			Layers: 2 + rng.Intn(3), Width: 1 + rng.Intn(3),
			StateMin: 16, StateMax: 128, ExtraEdges: 2,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := MeasureCurveOrgs(g, FlatTopo{}, Env{M: 256, B: 16}, 16, 96, 384, specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, jd := range [][2]int{{1, 1}, {4, 4}} {
			got, err := MeasureCurveOrgs(g, FlatTopo{}, Env{M: 256, B: 16, ProfileJobs: jd[0], DecodeJobs: jd[1]}, 16, 96, 384, specs)
			if err != nil || !reflect.DeepEqual(got.Curve, ref.Curve) || !reflect.DeepEqual(got.Orgs, ref.Orgs) {
				t.Errorf("seed %d: ProfileJobs=%d DecodeJobs=%d changed MeasureCurveOrgs' curves (err %v)", seed, jd[0], jd[1], err)
			}
		}
	}
}
