package streamsched_test

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"streamsched"
	"streamsched/internal/obs"
	"streamsched/internal/parallel"
	"streamsched/internal/schedule"
	"streamsched/internal/server"
	"streamsched/internal/trace"
	"streamsched/workloads"
)

func buildPipeline(t *testing.T, n int, state int64) *streamsched.Graph {
	t.Helper()
	b := streamsched.NewGraph("pipe")
	ids := make([]streamsched.NodeID, n)
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

func TestEndToEndPipeline(t *testing.T) {
	g := buildPipeline(t, 12, 128)
	env := streamsched.Env{M: 256, B: 16}
	cache := streamsched.CacheConfig{Capacity: 512, Block: 16}

	p, err := streamsched.PartitionGraph(g, env.M)
	if err != nil {
		t.Fatal(err)
	}
	bw, err := streamsched.Bandwidth(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if bw.Sign() <= 0 {
		t.Errorf("bandwidth = %v, want > 0 for an oversized pipeline", bw)
	}

	s := streamsched.AutoScheduler(g)
	if s.Name() != "partitioned-pipeline" {
		t.Errorf("auto scheduler = %s", s.Name())
	}
	res, err := streamsched.Simulate(g, s, env, cache, 512, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissesPerItem <= 0 {
		t.Error("no misses measured")
	}

	bound, err := streamsched.LowerBound(g, env.M, env.B)
	if err != nil {
		t.Fatal(err)
	}
	if !bound.Exact || bound.PerSourceFiring <= 0 {
		t.Errorf("bound = %+v", bound)
	}
}

// TestAutoSchedulerShapes pins the scheduler registry from every side that
// resolves through it: for each graph shape, schedule.ByName("partitioned"),
// AutoScheduler, PartitionedScheduler and the daemon's resolved scheduler
// string name the same variant; an unknown name is a 400 on the daemon.
func TestAutoSchedulerShapes(t *testing.T) {
	ts := httptest.NewServer(server.New(server.Config{Metrics: obs.NewRegistry()}).Handler())
	defer ts.Close()
	plan := func(g *streamsched.Graph, sched string) (int, string) {
		var body bytes.Buffer
		body.WriteString(`{"m": 512, "scheduler": "` + sched + `", "graph": `)
		if err := g.WriteJSON(&body); err != nil {
			t.Fatal(err)
		}
		body.WriteString("}")
		resp, err := http.Post(ts.URL+"/v1/plan", "application/json", &body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var pr struct{ Scheduler, Error string }
		if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, pr.Scheduler + pr.Error
	}
	fm, err := workloads.FMRadio(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := workloads.Filterbank(4, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	mp3, err := workloads.MP3Decoder(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		g    *streamsched.Graph
		want string
	}{
		{fm, "partitioned-homog"},
		{fb, "partitioned-batch"},
		{mp3, "partitioned-pipeline"},
	} {
		if got := streamsched.AutoScheduler(tc.g).Name(); got != tc.want {
			t.Errorf("%s scheduler = %s, want %s", tc.g.Name(), got, tc.want)
		}
		byName, err := schedule.ByName("partitioned", tc.g, 4)
		if err != nil || byName.Name() != tc.want {
			t.Errorf("%s: ByName(partitioned) = %v, %v, want %s", tc.g.Name(), byName, err, tc.want)
		}
		p, err := streamsched.PartitionGraph(tc.g, 512)
		if err != nil {
			t.Fatal(err)
		}
		if got := streamsched.PartitionedScheduler(tc.g, p).Name(); got != tc.want {
			t.Errorf("%s pinned scheduler = %s, want %s", tc.g.Name(), got, tc.want)
		}
		if status, got := plan(tc.g, "partitioned"); status != http.StatusOK || got != tc.want {
			t.Errorf("%s: daemon resolved %d %q, want %s", tc.g.Name(), status, got, tc.want)
		}
	}
	if _, err := schedule.ByName("nope", fm, 4); err == nil || err.Error() != `unknown scheduler "nope"` {
		t.Errorf("ByName(nope) = %v", err)
	}
	if status, msg := plan(fm, "nope"); status != http.StatusBadRequest || !strings.Contains(msg, `unknown scheduler "nope"`) {
		t.Errorf("daemon answered an unknown scheduler with %d %q", status, msg)
	}
	var names []string
	for _, s := range streamsched.Baselines() {
		names = append(names, s.Name())
	}
	for i, n := range []string{"flat", "scaled", "demand", "kohli"} {
		s, err := schedule.ByName(n, fm, 4)
		if err != nil || s.Name() != names[i] {
			t.Errorf("ByName(%s) = %v, %v; Baselines()[%d] is %s", n, s, err, i, names[i])
		}
	}
}

// TestWindowOverflowRejected: a measured window whose end (warm-up firings
// plus measured) does not fit in int64 is refused by every path that runs
// one. Before the guard the sum wrapped negative, the run loop exited at
// once, and every caller got a nil error and an all-zero result. A window
// that fits but folds into counts that do not is refused the same way.
func TestWindowOverflowRejected(t *testing.T) {
	g := buildPipeline(t, 8, 64)
	env := streamsched.Env{M: 256, B: 16}
	s := streamsched.AutoScheduler(g)
	lv := func(capacity int64) streamsched.HierLevel {
		return streamsched.HierLevel{Capacity: capacity, Block: 16}
	}
	const warm, measured = 1024, math.MaxInt64
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"Simulate", func() error {
			_, err := streamsched.Simulate(g, s, env, streamsched.CacheConfig{Capacity: 512, Block: 16}, warm, measured)
			return err
		}},
		{"SimulateCurve", func() error {
			_, err := streamsched.SimulateCurve(g, s, env, 16, warm, measured)
			return err
		}},
		{"SimulateHier", func() error {
			spec := streamsched.HierSpec{Block: 16, L1s: []streamsched.HierLevel{lv(256)}, L2s: []streamsched.HierLevel{lv(2048)}}
			_, err := streamsched.SimulateHier(g, s, env, spec, warm, measured)
			return err
		}},
		{"SimulateHierPoint", func() error {
			_, err := streamsched.SimulateHierPoint(g, s, env, streamsched.HierConfig{L1: lv(256), L2: lv(2048)}, warm, measured)
			return err
		}},
		{"RunTraced", func() error {
			cfg := streamsched.ParallelConfig{Procs: 2, Env: env, Cache: streamsched.CacheConfig{Capacity: 512, Block: 16}}
			_, plog, err := parallel.RunTraced(g, nil, cfg, warm, measured)
			if err == nil {
				plog.Close()
			}
			return err
		}},
		// A window that fits, folded: the flat schedule's steady state recurs
		// at once, and its access count — several per source firing — is
		// what overflows once the periods are multiplied in.
		{"SimulateCurve folded", func() error {
			_, err := streamsched.SimulateCurve(g, streamsched.ScaledScheduler(2), env, 16, warm, math.MaxInt64/2)
			return err
		}},
	} {
		if err := tc.run(); err == nil || !strings.Contains(err.Error(), "overflows int64") {
			t.Errorf("%s(warm=%d) = %v, want an overflow error", tc.name, warm, err)
		}
	}
}

func TestBaselinesRun(t *testing.T) {
	g := buildPipeline(t, 8, 64)
	env := streamsched.Env{M: 256, B: 16}
	cache := streamsched.CacheConfig{Capacity: 512, Block: 16}
	for _, s := range streamsched.Baselines() {
		res, err := streamsched.Simulate(g, s, env, cache, 128, 256)
		if err != nil {
			t.Errorf("%s: %v", s.Name(), err)
			continue
		}
		if res.SourceFired < 256 {
			t.Errorf("%s fired %d", s.Name(), res.SourceFired)
		}
	}
	if streamsched.ScaledScheduler(7).Name() != "scaled(s=7)" {
		t.Error("scaled name wrong")
	}
}

func TestPartitionedSchedulerPinned(t *testing.T) {
	g := buildPipeline(t, 8, 64)
	p, err := streamsched.PartitionTheorem5(g, 64)
	if err != nil {
		t.Fatal(err)
	}
	s := streamsched.PartitionedScheduler(g, p)
	res, err := streamsched.Simulate(g, s, streamsched.Env{M: 64, B: 16},
		streamsched.CacheConfig{Capacity: 1024, Block: 16}, 256, 512)
	if err != nil {
		t.Fatal(err)
	}
	if res.MissesPerItem <= 0 {
		t.Error("no misses measured")
	}
}

func TestPartitionExactFacade(t *testing.T) {
	g := buildPipeline(t, 6, 8)
	p, err := streamsched.PartitionExact(g, 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(g, 16); err != nil {
		t.Error(err)
	}
}

func TestSimulateParallelFacade(t *testing.T) {
	fm, err := workloads.FMRadio(4, 64)
	if err != nil {
		t.Fatal(err)
	}
	cfg := streamsched.ParallelConfig{
		Procs: 2,
		Env:   streamsched.Env{M: 128, B: 16},
		Cache: streamsched.CacheConfig{Capacity: 512, Block: 16},
	}
	res, err := streamsched.SimulateParallel(fm, nil, cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.SourceFired < 300 {
		t.Errorf("fired %d", res.SourceFired)
	}
	fb, err := workloads.Filterbank(2, 4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamsched.SimulateParallel(fb, nil, cfg, 10); err == nil {
		t.Error("inhomogeneous non-pipeline accepted by parallel facade")
	}
}

func TestReadGraphJSONFacade(t *testing.T) {
	js := `{"name":"tiny","nodes":[{"name":"s","state":0},{"name":"t","state":0}],
	        "edges":[{"from":0,"to":1,"out":1,"in":1}]}`
	g, err := streamsched.ReadGraphJSON(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 {
		t.Error("parse failed")
	}
}

func TestLowerBoundDagPaths(t *testing.T) {
	fm, err := workloads.FMRadio(2, 32) // 10 nodes: exact path
	if err != nil {
		t.Fatal(err)
	}
	bound, err := streamsched.LowerBound(fm, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !bound.Exact {
		t.Error("small dag should get exact bound")
	}
	big, err := workloads.FMRadio(16, 32) // 38 nodes: heuristic path
	if err != nil {
		t.Fatal(err)
	}
	hb, err := streamsched.LowerBound(big, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hb.Exact {
		t.Error("large dag should get heuristic bound")
	}
}

// TestMissCurveMatchesSimulateAcrossWorkloads is the tentpole acceptance
// check: for every workload in the suite and every scheduler in Baselines()
// plus the AutoScheduler, one recorded trace's miss curve must agree
// exactly with the cache simulator's LRU miss count at several sampled
// capacities.
func TestMissCurveMatchesSimulateAcrossWorkloads(t *testing.T) {
	env := streamsched.Env{M: 512, B: 16}
	graphs, err := workloads.Suite(env.M)
	if err != nil {
		t.Fatal(err)
	}
	warm, measured := int64(128), int64(512)
	for _, g := range graphs {
		scheds := append(streamsched.Baselines(), streamsched.AutoScheduler(g))
		for _, s := range scheds {
			cr, err := streamsched.SimulateCurve(g, s, env, env.B, warm, measured)
			if err != nil {
				t.Fatalf("%s/%s: SimulateCurve: %v", g.Name(), s.Name(), err)
			}
			for _, capWords := range []int64{env.M / 2, env.M, 2 * env.M, 8 * env.M} {
				res, err := streamsched.Simulate(g, s, env, streamsched.CacheConfig{
					Capacity: capWords, Block: env.B,
				}, warm, measured)
				if err != nil {
					t.Fatalf("%s/%s: Simulate at %d: %v", g.Name(), s.Name(), capWords, err)
				}
				if got, want := cr.Curve.MissesAtCapacity(capWords, env.B), res.Stats.Misses; got != want {
					t.Errorf("%s/%s at capacity %d: curve %d misses, cachesim %d",
						g.Name(), s.Name(), capWords, got, want)
				}
			}
		}
	}
}

// TestSweepCurvesAcrossSchedulers runs the pooled sweep through the public
// API and checks the partitioned scheduler beats the flat baseline once
// the graph no longer fits in cache.
func TestSweepCurvesAcrossSchedulers(t *testing.T) {
	g := buildPipeline(t, 24, 128)
	env := streamsched.Env{M: 512, B: 16}
	scheds := append(streamsched.Baselines(), streamsched.AutoScheduler(g))
	results, err := streamsched.Sweep(scheds, func(s streamsched.Scheduler) (*streamsched.CurveResult, error) {
		return streamsched.SimulateCurve(g, s, env, env.B, 256, 1024)
	})
	if err != nil {
		t.Fatal(err)
	}
	flat, part := results[0], results[len(results)-1]
	if flat.Curve.Accesses == 0 || part.Curve.Accesses == 0 {
		t.Fatal("empty curves from sweep")
	}
	// At cache = M (graph state 22*128 >> M) the partitioned schedule
	// should miss less per item than the flat baseline.
	if fp, pp := flat.MissesPerItem(env.M, env.B), part.MissesPerItem(env.M, env.B); pp >= fp {
		t.Errorf("partitioned %.3f misses/item not better than flat %.3f at M=%d", pp, fp, env.M)
	}
}

// TestMissCurveSweepFasterThanSimulates makes the engine's reason for
// existing executable: a 5-point M-sweep through one recorded trace must
// beat 5 independent Simulate calls.
func TestMissCurveSweepFasterThanSimulates(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	g := buildPipeline(t, 34, 128)
	env := streamsched.Env{M: 512, B: 16}
	s := streamsched.AutoScheduler(g)
	caps := []int64{256, 512, 1024, 2048, 4096}
	warm, meas := int64(256), int64(2048)

	// Compare the best of 3 attempts on each side: noise on a loaded CI
	// runner only ever inflates a measurement, so the minima approximate
	// the true costs and a single scheduling hiccup cannot flip the result.
	best := func(run func()) time.Duration {
		min := time.Duration(1<<63 - 1)
		for attempt := 0; attempt < 3; attempt++ {
			start := time.Now()
			run()
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	simTime := best(func() {
		for _, c := range caps {
			if _, err := streamsched.Simulate(g, s, env, streamsched.CacheConfig{Capacity: c, Block: env.B}, warm, meas); err != nil {
				t.Fatal(err)
			}
		}
	})
	curveTime := best(func() {
		cr, err := streamsched.SimulateCurve(g, s, env, env.B, warm, meas)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range caps {
			_ = cr.Curve.MissesAtCapacity(c, env.B)
		}
	})
	t.Logf("5-point sweep (best of 3): %v via Simulate, %v via miss curve", simTime, curveTime)
	if curveTime >= simTime {
		t.Errorf("miss-curve sweep (%v) not faster than 5 Simulate calls (%v)", curveTime, simTime)
	}
}

// TestSimulateHierAcrossWorkloads runs the hierarchy facade on a real
// workload and checks the composed (L1, L2) grid is internally coherent:
// L1 misses bound L2 misses, a bigger L2 never misses more under LRU, and
// the grid agrees with the single-level curve at the L1 points.
func TestSimulateHierAcrossWorkloads(t *testing.T) {
	g, err := workloads.FMRadio(8, 128)
	if err != nil {
		t.Fatal(err)
	}
	env := streamsched.Env{M: 512, B: 16}
	spec := streamsched.HierSpec{
		Block: env.B,
		L1s: []streamsched.HierLevel{
			{Capacity: 256, Block: env.B, Ways: 4},
			{Capacity: 512, Block: env.B},
		},
		L2s: []streamsched.HierLevel{
			{Capacity: 2048, Block: env.B},
			{Capacity: 8192, Block: env.B},
		},
	}
	s := streamsched.AutoScheduler(g)
	hr, err := streamsched.SimulateHier(g, s, env, spec, 128, 512)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := streamsched.SimulateCurveOrgs(g, s, env, env.B, 128, 512,
		[]streamsched.OrgSpec{{Sets: 4, LRUWays: []int64{1, 2, 4, 8, 16, 40, 100}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range spec.L1s {
		for j := range spec.L2s {
			l1, l2 := hr.Curves.Point(i, j)
			if l2 > l1 {
				t.Errorf("point (%d,%d): L2 misses %d exceed L2 accesses %d", i, j, l2, l1)
			}
		}
		// A bigger fully-associative LRU L2 can only filter more.
		if small, big := hr.Curves.L2Misses[i][0], hr.Curves.L2Misses[i][1]; big > small {
			t.Errorf("L1 %d: 8k L2 misses %d exceed 2k L2 misses %d", i, big, small)
		}
	}
	// L1 point 0 is the 4-way 256-word geometry: it must match the
	// single-trace organisation profile of the same geometry.
	if got, want := hr.Curves.L1Misses[0], cr.Orgs[0].LRU.Misses(4); got != want {
		t.Errorf("hier L1 misses %d, org curve %d", got, want)
	}
	if got, want := hr.Curves.L1Misses[1], cr.Curve.MissesAtCapacity(512, env.B); got != want {
		t.Errorf("hier FA L1 misses %d, miss curve %d", got, want)
	}
}

// TestSweepHierCurvesAcrossSchedulers runs the pooled hierarchy sweep
// through the public API.
func TestSweepHierCurvesAcrossSchedulers(t *testing.T) {
	g := buildPipeline(t, 24, 128)
	env := streamsched.Env{M: 512, B: 16}
	spec := streamsched.HierSpec{
		Block: env.B,
		L1s:   []streamsched.HierLevel{{Capacity: 512, Block: env.B}},
		L2s:   []streamsched.HierLevel{{Capacity: 4096, Block: 64}},
	}
	scheds := append(streamsched.Baselines(), streamsched.AutoScheduler(g))
	results, err := streamsched.Sweep(scheds, func(s streamsched.Scheduler) (*streamsched.HierResult, error) {
		return streamsched.SimulateHier(g, s, env, spec, 256, 1024)
	})
	if err != nil {
		t.Fatal(err)
	}
	cm := streamsched.HierCostModel{L1Hit: 1, L2Hit: 10, Mem: 100}
	flat, part := results[0], results[len(results)-1]
	if flat.Curves.Accesses == 0 || part.Curves.Accesses == 0 {
		t.Fatal("empty hierarchy curves from sweep")
	}
	// The partitioned schedule should cost less through the hierarchy too.
	if fa, pa := flat.Curves.AMAT(0, 0, cm), part.Curves.AMAT(0, 0, cm); pa >= fa {
		t.Errorf("partitioned AMAT %.3f not better than flat %.3f", pa, fa)
	}
}

// TestSimulateHierPointExclusive drives the pointwise two-level simulator
// through the public API in exclusive mode and checks it against the
// one-pass grid's non-inclusive counterpart: with a victim-cache L2 of
// the same total size, memory misses cannot exceed the L1-alone misses,
// and the non-inclusive point must match SimulateHier exactly.
func TestSimulateHierPointExclusive(t *testing.T) {
	g := buildPipeline(t, 16, 128)
	env := streamsched.Env{M: 256, B: 16}
	l1 := streamsched.HierLevel{Capacity: 256, Block: env.B}
	l2 := streamsched.HierLevel{Capacity: 1024, Block: env.B}
	excl, err := streamsched.SimulateHierPoint(g, streamsched.AutoScheduler(g), env,
		streamsched.HierConfig{L1: l1, L2: l2, Mode: streamsched.HierExclusive}, 128, 512)
	if err != nil {
		t.Fatal(err)
	}
	if excl.L1.Misses == 0 {
		t.Fatal("no L1 misses measured; the check is vacuous")
	}
	if excl.L2.Misses > excl.L1.Misses {
		t.Errorf("exclusive L2 misses %d exceed L2 accesses %d", excl.L2.Misses, excl.L1.Misses)
	}
	spec := streamsched.HierSpec{Block: env.B, L1s: []streamsched.HierLevel{l1}, L2s: []streamsched.HierLevel{l2}}
	hr, err := streamsched.SimulateHier(g, streamsched.AutoScheduler(g), env, spec, 128, 512)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := streamsched.SimulateHierPoint(g, streamsched.AutoScheduler(g), env,
		streamsched.HierConfig{L1: l1, L2: l2}, 128, 512)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := hr.Curves.Point(0, 0)
	if c1 != pt.L1.Misses || c2 != pt.L2.Misses {
		t.Errorf("one-pass point (%d, %d) != pointwise simulator (%d, %d)",
			c1, c2, pt.L1.Misses, pt.L2.Misses)
	}
}

// TestSimulateSharedFacade: the root shared-L2 surface — one-pass grid,
// pointwise oracle, and sweep — agree with each other on a real workload.
func TestSimulateSharedFacade(t *testing.T) {
	g := buildPipeline(t, 12, 64)
	cfg := streamsched.ParallelConfig{
		Procs: 2,
		Env:   streamsched.Env{M: 128, B: 16},
		Cache: streamsched.CacheConfig{Capacity: 256, Block: 16},
	}
	spec := streamsched.SharedHierSpec{
		Block: 16,
		L1s: []streamsched.HierLevel{
			{Capacity: 128, Block: 16, Ways: 1},
			{Capacity: 256, Block: 16},
		},
		L2s: []streamsched.HierLevel{
			{Capacity: 1024, Block: 16},
			{Capacity: 2048, Block: 64, Ways: 4},
		},
	}
	mr, err := streamsched.SimulateShared(g, nil, cfg, spec, 128, 512)
	if err != nil {
		t.Fatal(err)
	}
	if mr.Procs != 2 || mr.Run.SourceFired < 512 {
		t.Fatalf("facade run accounting: %+v", mr.Run)
	}
	cm := streamsched.HierCostModel{L1Hit: 1, L2Hit: 10, Mem: 100}
	for i := range spec.L1s {
		for j := range spec.L2s {
			hcfg := streamsched.SharedHierConfig{Procs: 2, L1: spec.L1s[i], L2: spec.L2s[j]}
			pt, err := streamsched.SimulateSharedPoint(g, nil, cfg, hcfg, cm, 128, 512)
			if err != nil {
				t.Fatal(err)
			}
			l1, l2 := mr.Curves.Point(i, j)
			var ptL1 int64
			for p := 0; p < 2; p++ {
				ptL1 += pt.PerProcL1[p].Misses
			}
			if l1 != ptL1 || l2 != pt.L2.Misses {
				t.Errorf("point (%d,%d): grid (%d,%d) != pointwise (%d,%d)", i, j, l1, l2, ptL1, pt.L2.Misses)
			}
			if pt.Makespan <= 0 || pt.AMAT <= 0 {
				t.Errorf("point (%d,%d): degenerate cost figures %+v", i, j, pt)
			}
		}
	}

	// The spec leaves Procs at 0, so one spec serves every processor count.
	for _, procs := range []int{1, 4} {
		c := cfg
		c.Procs = procs
		r, err := streamsched.SimulateShared(g, nil, c, spec, 128, 512)
		if err != nil {
			t.Fatal(err)
		}
		if r.Procs != procs {
			t.Fatalf("P=%d run profiled %d processors", procs, r.Procs)
		}
	}
}

// TestOrgSpecNeedsLRUWaysPastOneSet: an OrgSpec of more than one set that
// lists no LRUWays — FIFO way counts do not stand in for them — is refused
// by every entry point with an error naming LRUWays, never a panic, while a
// one-set spec that lists none answers every capacity: each way count up
// to past the footprint, equal to the fully-associative curve beside it.
func TestOrgSpecNeedsLRUWaysPastOneSet(t *testing.T) {
	g := buildPipeline(t, 8, 128)
	env := streamsched.Env{M: 256, B: 16}
	s := streamsched.AutoScheduler(g)
	var blocks []int64
	for i := int64(0); i < 400; i++ {
		blocks = append(blocks, i*i%53)
	}
	l := trace.NewLog()
	for _, blk := range blocks {
		l.RecordRun(blk, 1)
	}
	measure := func(cr *streamsched.CurveResult, err error) ([]*trace.OrgCurves, *trace.MissCurve, error) {
		if err != nil {
			return nil, nil, err
		}
		return cr.Orgs, cr.Curve, nil
	}
	// Each entry profiles one spec and returns its curves and the
	// fully-associative curve of the same stream.
	entries := map[string]func([]trace.OrgSpec) ([]*trace.OrgCurves, *trace.MissCurve, error){
		"NewOrgProfilers": func(specs []trace.OrgSpec) ([]*trace.OrgCurves, *trace.MissCurve, error) {
			p, err := trace.NewOrgProfilers(specs)
			if err != nil {
				return nil, nil, err
			}
			for _, blk := range blocks {
				p.Touch(blk)
			}
			return p.Curves(), trace.Profile(l), nil
		},
		"ProfileOrgs": func(specs []trace.OrgSpec) ([]*trace.OrgCurves, *trace.MissCurve, error) {
			curves, err := trace.ProfileOrgs(l, specs)
			return curves, trace.Profile(l), err
		},
		"schedule.MeasureCurveOrgs": func(specs []trace.OrgSpec) ([]*trace.OrgCurves, *trace.MissCurve, error) {
			return measure(schedule.MeasureCurveOrgs(g, s, env, env.B, 64, 256, specs))
		},
		"SimulateCurveOrgs": func(specs []trace.OrgSpec) ([]*trace.OrgCurves, *trace.MissCurve, error) {
			return measure(streamsched.SimulateCurveOrgs(g, s, env, env.B, 64, 256, specs))
		},
	}
	for _, spec := range []streamsched.OrgSpec{{Sets: 4}, {Sets: 4, FIFOWays: []int64{4}}, {Sets: 1}} {
		for name, entry := range entries {
			var (
				curves []*trace.OrgCurves
				full   *trace.MissCurve
				err    error
			)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s(%+v) panicked: %v", name, spec, r)
					}
				}()
				curves, full, err = entry([]trace.OrgSpec{spec})
			}()
			if spec.Sets > 1 {
				if err == nil || !strings.Contains(err.Error(), "LRUWays") {
					t.Errorf("%s(%+v) = %v, want an error naming LRUWays", name, spec, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s(%+v): %v", name, spec, err)
			}
			for lines := int64(1); lines <= full.SaturationLines()+2; lines++ {
				if got, ok := curves[0].Misses(lines, false); !ok || got != full.Misses(lines) {
					t.Fatalf("%s(%+v) at %d lines: %d misses (ok=%v), fully-associative curve %d", name, spec, lines, got, ok, full.Misses(lines))
				}
			}
		}
	}
}
