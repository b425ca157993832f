package parallel

import (
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
)

func filterbank(t *testing.T, branches int, state int64) *sdf.Graph {
	t.Helper()
	b := sdf.NewBuilder("filterbank")
	src := b.AddNode("src", 0)
	split := b.AddNode("split", state)
	join := b.AddNode("join", state)
	sink := b.AddNode("sink", 0)
	b.Connect(src, split, 1, 1)
	for i := 0; i < branches; i++ {
		f1 := b.AddNode("f1", state)
		f2 := b.AddNode("f2", state)
		b.Connect(split, f1, 1, 1)
		b.Connect(f1, f2, 1, 1)
		b.Connect(f2, join, 1, 1)
	}
	b.Connect(join, sink, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func pipeline(t *testing.T, n int, state int64) *sdf.Graph {
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

func testConfig(procs int) Config {
	return Config{
		Procs: procs,
		Env:   schedule.Env{M: 128, B: 16},
		Cache: cachesim.Config{Capacity: 512, Block: 16},
	}
}

func ruleConfig(procs int, r Rule) Config {
	cfg := testConfig(procs)
	cfg.Rule = r
	return cfg
}

func TestRunHomogeneousBasics(t *testing.T) {
	g := filterbank(t, 3, 64)
	res, err := Run(g, nil, ruleConfig(2, HomogeneousRule), 500)
	if err != nil {
		t.Fatal(err)
	}
	if res.SourceFired < 500 {
		t.Errorf("source fired %d < 500", res.SourceFired)
	}
	if res.Procs != 2 || len(res.PerProc) != 2 {
		t.Errorf("proc accounting: %+v", res)
	}
	if res.TotalMisses <= 0 || res.MakespanBlocks <= 0 {
		t.Errorf("cost accounting: %+v", res)
	}
	if res.MakespanBlocks > res.BusyBlocks {
		t.Error("makespan exceeds total work")
	}
	var execs int64
	for _, e := range res.Executions {
		execs += e
	}
	if execs <= 0 {
		t.Error("no executions recorded")
	}
}

func TestParallelSpeedsUpMakespan(t *testing.T) {
	// With several independent heavy branches, 4 processors should achieve
	// a smaller makespan than 1 (work spreads across private caches).
	g := filterbank(t, 6, 96)
	r1, err := Run(g, nil, ruleConfig(1, HomogeneousRule), 2000)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := Run(g, nil, ruleConfig(4, HomogeneousRule), 2000)
	if err != nil {
		t.Fatal(err)
	}
	if r4.MakespanBlocks >= r1.MakespanBlocks {
		t.Errorf("4-proc makespan %d not below 1-proc %d", r4.MakespanBlocks, r1.MakespanBlocks)
	}
}

func TestRunPipelineParallel(t *testing.T) {
	g := pipeline(t, 12, 64)
	res, err := Run(g, nil, ruleConfig(3, PipelineRule), 800)
	if err != nil {
		t.Fatal(err)
	}
	if res.SourceFired < 800 {
		t.Errorf("source fired %d < 800", res.SourceFired)
	}
	if res.TotalMisses <= 0 {
		t.Error("no misses recorded")
	}
}

func TestValidationErrors(t *testing.T) {
	g := filterbank(t, 2, 16)
	if _, err := Run(g, nil, Config{Procs: 0, Env: schedule.Env{M: 64, B: 16},
		Cache: cachesim.Config{Capacity: 256, Block: 16}, Rule: HomogeneousRule}, 10); err == nil {
		t.Error("Procs=0 accepted")
	}
	if _, err := Run(g, nil, ruleConfig(1, PipelineRule), 10); err == nil {
		t.Error("pipeline runner accepted a dag")
	}
	p := pipeline(t, 4, 8)
	if _, err := Run(p, nil, ruleConfig(1, HomogeneousRule), 10); err != nil {
		t.Errorf("homogeneous pipeline should be accepted: %v", err)
	}
	inh := sdf.NewBuilder("inh")
	a := inh.AddNode("a", 0)
	bnode := inh.AddNode("b", 4)
	c := inh.AddNode("c", 0)
	inh.Connect(a, bnode, 2, 1)
	inh.Connect(bnode, c, 1, 2)
	gi, err := inh.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(gi, nil, ruleConfig(1, HomogeneousRule), 10); err == nil {
		t.Error("inhomogeneous graph accepted by homogeneous runner")
	}
}

func TestDeterministic(t *testing.T) {
	g := filterbank(t, 4, 48)
	a, err := Run(g, nil, ruleConfig(3, HomogeneousRule), 600)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, nil, ruleConfig(3, HomogeneousRule), 600)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalMisses != b.TotalMisses || a.MakespanBlocks != b.MakespanBlocks {
		t.Error("parallel simulation is not deterministic")
	}
	for i := range a.Executions {
		if a.Executions[i] != b.Executions[i] {
			t.Error("execution assignment differs between runs")
		}
	}
}
