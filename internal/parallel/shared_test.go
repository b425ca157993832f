package parallel

import (
	"fmt"
	"reflect"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/hierarchy"
	"streamsched/internal/partition"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

func hlv(capacity, block, ways int64, pol cachesim.Policy) hierarchy.Level {
	return hierarchy.Level{Capacity: capacity, Block: block, Ways: ways, Policy: pol}
}

// testSpec is the shared-L2 grid the tests hold against the exact
// simulator. Its last L2, 32 lines, is smaller than the test graphs'
// footprints, so the order its stacks leave blocks in at the window mark —
// rebuilt from a warm-up by last use — decides misses.
func testSpec(procs int) hierarchy.SharedSpec {
	return hierarchy.SharedSpec{
		Block: 16,
		Procs: procs,
		L1s: []hierarchy.Level{
			hlv(256, 16, 0, cachesim.LRU),
			hlv(512, 16, 1, cachesim.LRU),
			hlv(128, 16, 1, cachesim.LRU),
		},
		L2s: []hierarchy.Level{
			hlv(2048, 16, 0, cachesim.LRU),
			hlv(4096, 64, 4, cachesim.FIFO),
			hlv(8192, 64, 8, cachesim.LRU),
			hlv(2048, 64, 4, cachesim.FIFO),
			hlv(512, 16, 0, cachesim.LRU),
		},
	}
}

func TestRunTracedWindow(t *testing.T) {
	g := filterbank(t, 3, 64)
	res, plog, err := RunTraced(g, nil, testConfig(2), 200, 400)
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	if res.SourceFired < 400 {
		t.Errorf("window source firings %d < 400", res.SourceFired)
	}
	if plog.Procs() != 2 {
		t.Errorf("trace procs %d, want 2", plog.Procs())
	}
	if plog.WindowStart() <= 0 || plog.WindowStart() >= plog.Len() {
		t.Errorf("window mark %d outside (0, %d)", plog.WindowStart(), plog.Len())
	}
	perProc := make([]int64, plog.Procs())
	if err := plog.ForEach(func(proc int, _ int64) { perProc[proc]++ }); err != nil {
		t.Fatal(err)
	}
	for p, n := range perProc {
		if n == 0 {
			t.Errorf("processor %d recorded no access", p)
		}
	}
	// The windowed result's misses equal the in-window L1 misses of a
	// replay through banks identical to the run's private caches... the
	// executor already counts them; just sanity-check positivity and
	// makespan <= busy.
	if res.TotalMisses <= 0 || res.MakespanBlocks > res.BusyBlocks {
		t.Errorf("windowed accounting: %+v", res)
	}
}

// TestRunTracedInterleavingMatchesClocks: the recorded trace replayed
// through private banks of the run's own cache geometry reproduces the
// executor's windowed per-processor miss counts exactly — the trace really
// is the stream the caches saw.
func TestRunTracedMatchesExecutor(t *testing.T) {
	g := filterbank(t, 4, 48)
	cfg := testConfig(3)
	res, plog, err := RunTraced(g, nil, cfg, 150, 500)
	if err != nil {
		t.Fatal(err)
	}
	defer plog.Close()
	sim, err := hierarchy.SimulateSharedLog(plog, hierarchy.SharedConfig{
		Procs: 3,
		L1:    hlv(cfg.Cache.Capacity, cfg.Cache.Block, int64(cfg.Cache.Ways), cfg.Cache.Policy),
		L2:    hlv(cfg.Cache.Capacity*8, cfg.Cache.Block, 0, cachesim.LRU),
	})
	if err != nil {
		t.Fatal(err)
	}
	var simMisses, simAccesses int64
	for p := 0; p < 3; p++ {
		simMisses += sim.L1Stats(p).Misses
		simAccesses += sim.L1Stats(p).Accesses
	}
	if simMisses != res.TotalMisses {
		t.Errorf("replayed private-L1 misses %d != executor windowed misses %d", simMisses, res.TotalMisses)
	}
	if simAccesses == 0 {
		t.Error("no windowed accesses replayed")
	}
}

// TestMeasureSharedMatchesRunShared: every grid point of the one-pass
// profile equals the pointwise shared simulation of the same
// configuration, at P in {1, 2, 4}, under E21's three schedules: the
// homogeneous rule on the auto partition of a filterbank, and the
// pipeline rule on the singleton and auto partitions of E21's pipeline at
// E21's design point and window, where the coarse-block L2s see more than
// compulsory misses. The pointwise side is a fresh execution, which is
// identical because the interleaving depends only on the design caches,
// not the evaluated hierarchy. Both are the run's sink, each with its own
// window mark, so a mark that failed to reset either side's counters would
// show up here as warm-up traffic on one side only.
func TestMeasureSharedMatchesRunShared(t *testing.T) {
	fb, pipe := filterbank(t, 3, 64), pipeline(t, 24, 96)
	e21 := func(procs int, rule Rule) Config {
		cfg := ruleConfig(procs, rule)
		cfg.Env.M, cfg.Cache.Capacity = 512, 1024
		return cfg
	}
	variants := []struct {
		name       string
		g          *sdf.Graph
		p          *partition.Partition
		cfg        func(int, Rule) Config
		rule       Rule
		warm, meas int64
	}{
		{"homog+auto", fb, nil, ruleConfig, HomogeneousRule, 100, 300},
		{"pipe+fine", pipe, partition.Singleton(pipe), e21, PipelineRule, 256, 1024},
		{"pipe+aware", pipe, nil, e21, PipelineRule, 256, 1024},
	}
	cm := hierarchy.DefaultCostModel
	for _, v := range variants {
		for _, procs := range []int{1, 2, 4} {
			cfg, spec := v.cfg(procs, v.rule), testSpec(procs)
			mr, err := MeasureShared("test", v.g, v.p, cfg, spec, v.warm, v.meas)
			if err != nil {
				t.Fatal(err)
			}
			traced, plog, err := RunTraced(v.g, v.p, cfg, v.warm, v.meas)
			if err != nil {
				t.Fatal(err)
			}
			plog.Close()
			if !reflect.DeepEqual(traced, mr.Run) {
				t.Errorf("%s P=%d: RunTraced result %+v, MeasureShared %+v", v.name, procs, traced, mr.Run)
			}
			for i := range spec.L1s {
				for j := range spec.L2s {
					pt, err := RunShared(v.g, v.p, cfg, spec.Config(i, j), cm, v.warm, v.meas)
					if err != nil {
						t.Fatal(err)
					}
					at := fmt.Sprintf("%s P=%d point (%d,%d)", v.name, procs, i, j)
					if !reflect.DeepEqual(pt.Run, mr.Run) {
						t.Errorf("%s: RunShared result %+v, MeasureShared %+v", at, pt.Run, mr.Run)
					}
					if pt.TraceLen != mr.TraceLen {
						t.Errorf("%s: pointwise run saw %d accesses, profiled run %d", at, pt.TraceLen, mr.TraceLen)
					}
					var l1, acc int64
					for p := 0; p < cfg.Procs; p++ {
						if got, want := mr.Curves.L1Misses[i][p], pt.PerProcL1[p].Misses; got != want {
							t.Errorf("%s proc %d: profile L1 %d, pointwise %d", at, p, got, want)
						}
						l1 += pt.PerProcL1[p].Misses
						acc += pt.PerProcL1[p].Accesses
					}
					if acc != mr.Curves.Accesses {
						t.Errorf("%s: profile counted %d window accesses, pointwise %d", at, mr.Curves.Accesses, acc)
					}
					gl1, gl2 := mr.Curves.Point(i, j)
					if gl1 != l1 || gl2 != pt.L2.Misses {
						t.Errorf("%s: profile (%d,%d), pointwise (%d,%d)", at, gl1, gl2, l1, pt.L2.Misses)
					}
					if got, want := mr.Curves.AMAT(i, j, cm), pt.AMAT; got != want {
						t.Errorf("%s: profile AMAT %v, pointwise %v", at, got, want)
					}
				}
			}
		}
	}
}

// TestRunSharedMakespan: makespan is the max per-processor cost and every
// processor's L2 attribution sums to the aggregate.
func TestRunSharedMakespan(t *testing.T) {
	g := pipeline(t, 10, 64)
	cfg := testConfig(2)
	cfg.Rule = PipelineRule
	res, err := RunShared(g, nil, cfg, testSpec(2).Config(0, 0), hierarchy.DefaultCostModel, 100, 400)
	if err != nil {
		t.Fatal(err)
	}
	var maxCost float64
	var l2 hierarchy.LevelStats
	for p := 0; p < cfg.Procs; p++ {
		if res.PerProcCost[p] > maxCost {
			maxCost = res.PerProcCost[p]
		}
		l2.Accesses += res.PerProcL2[p].Accesses
		l2.Hits += res.PerProcL2[p].Hits
		l2.Misses += res.PerProcL2[p].Misses
	}
	if res.Makespan != maxCost {
		t.Errorf("makespan %v != max per-proc cost %v", res.Makespan, maxCost)
	}
	if l2 != res.L2 {
		t.Errorf("per-proc L2 attribution %+v != aggregate %+v", l2, res.L2)
	}
}

// TestSweepSharedDeterministicAcrossWorkers: a trace.Sweep of shared
// profiles returns identical curves regardless of pool width — parallel
// profiling must not perturb the simulated runs.
func TestSweepSharedDeterministicAcrossWorkers(t *testing.T) {
	g := filterbank(t, 3, 64)
	auto, err := partition.Auto(g, 128)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		p    *partition.Partition
		cfg  Config
	}{
		{"P1", auto, testConfig(1)},
		{"P2", auto, testConfig(2)},
		{"P4-singleton", partition.Singleton(g), testConfig(4)},
	}
	jobs := make([]trace.Job[*SharedMeasureResult], len(variants))
	for i, v := range variants {
		jobs[i] = trace.Job[*SharedMeasureResult]{Name: v.name, Run: func() (*SharedMeasureResult, error) {
			return MeasureShared(v.name, g, v.p, v.cfg, testSpec(0), 100, 300)
		}}
	}
	run := func(workers int) []*SharedMeasureResult {
		out := trace.Sweep(jobs, workers)
		res := make([]*SharedMeasureResult, len(out))
		for i, o := range out {
			if o.Err != nil {
				t.Fatalf("worker=%d variant %s: %v", workers, o.Name, o.Err)
			}
			res[i] = o.Value
		}
		return res
	}
	a, b := run(1), run(4)
	for i := range a {
		if !reflect.DeepEqual(a[i].Curves, b[i].Curves) {
			t.Errorf("variant %s: curves differ between 1 and 4 workers", a[i].Name)
		}
		if a[i].Run.TotalMisses != b[i].Run.TotalMisses {
			t.Errorf("variant %s: run summaries differ between worker counts", a[i].Name)
		}
	}
}

// TestSharedValidation: mismatched processor counts, blocks, and windows
// are refused.
func TestSharedValidation(t *testing.T) {
	g := filterbank(t, 2, 32)
	cfg := testConfig(2)
	if _, _, err := RunTraced(g, nil, cfg, 10, 0); err == nil {
		t.Error("measured=0 accepted")
	}
	spec := testSpec(3) // wrong proc count
	if _, err := MeasureShared("x", g, nil, cfg, spec, 10, 20); err == nil {
		t.Error("proc-count mismatch accepted")
	}
	spec = testSpec(2)
	spec.Block = 32 // wrong granularity
	if _, err := MeasureShared("x", g, nil, cfg, spec, 10, 20); err == nil {
		t.Error("block mismatch accepted")
	}
	hcfg := hierarchy.SharedConfig{Procs: 2, L1: hlv(256, 32, 0, cachesim.LRU), L2: hlv(2048, 32, 0, cachesim.LRU)}
	if _, err := RunShared(g, nil, cfg, hcfg, hierarchy.DefaultCostModel, 10, 20); err == nil {
		t.Error("L1-block/trace-granularity mismatch accepted")
	}
}

// TestRunAutoRule: Run with AutoRule matches the rule it resolves to.
func TestRunAutoRule(t *testing.T) {
	g := filterbank(t, 3, 48)
	auto, err := Run(g, nil, testConfig(2), 300)
	if err != nil {
		t.Fatal(err)
	}
	hom, err := Run(g, nil, ruleConfig(2, HomogeneousRule), 300)
	if err != nil {
		t.Fatal(err)
	}
	if auto.TotalMisses != hom.TotalMisses || !reflect.DeepEqual(auto.Executions, hom.Executions) {
		t.Error("AutoRule diverges from HomogeneousRule on a homogeneous dag")
	}
}
