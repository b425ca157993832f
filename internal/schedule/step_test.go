package schedule

import (
	"math/rand"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/randgraph"
	"streamsched/internal/sdf"
)

// blockStream is a recorder that keeps every block access, in order.
type blockStream []int64

func (s *blockStream) RecordRun(base, n int64) {
	for b := base; b < base+n; b++ {
		*s = append(*s, b)
	}
}

// record runs drive on a fresh recording machine for caps and returns the
// block stream it issued.
func record(t *testing.T, g *sdf.Graph, caps []int64, drive func(m *exec.Machine) error) blockStream {
	t.Helper()
	var s blockStream
	m, err := exec.NewMachine(g, exec.Config{Cache: cachesim.Config{Block: 16}, Caps: caps, Recorder: &s})
	if err != nil {
		t.Fatal(err)
	}
	if err := drive(m); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	return s
}

// stepGraphs is one graph of each shape the schedulers dispatch on, plus a
// random homogeneous dag and a random inhomogeneous split-join.
func stepGraphs(t *testing.T) []*sdf.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(27))
	dag, err := randgraph.RandomLayeredDag(rng, randgraph.LayeredSpec{Layers: 3, Width: 2, StateMin: 16, StateMax: 128, ExtraEdges: 2})
	if err != nil {
		t.Fatal(err)
	}
	inh, err := randgraph.RandomSplitJoin(rng, randgraph.SplitJoinSpec{Branches: 3, BranchDepth: 4, StateMin: 16, StateMax: 96, RateMax: 3})
	if err != nil {
		t.Fatal(err)
	}
	// src -1:1-> a -2:1-> b -2:1-> sink: the demand-driven sweep can end
	// on a source firing and start the next with one, a step straddling
	// Compile's chunk boundary.
	b := sdf.NewBuilder("upsample")
	ids := []sdf.NodeID{b.AddNode("src", 0), b.AddNode("a", 64), b.AddNode("b", 96), b.AddNode("sink", 0)}
	b.Connect(ids[0], ids[1], 1, 1)
	b.Connect(ids[1], ids[2], 2, 1)
	b.Connect(ids[2], ids[3], 2, 1)
	up, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return []*sdf.Graph{uniformPipeline(t, 8, 64), inhomogeneousPipeline(t, 48), up, splitJoin(t, 3, 64), dag, inh}
}

// TestSteppedRunsMatchOneRun pins Plan.Step's contract, which the window
// fold rests on: for every plan that declares a step, after any warm-up,
// Run calls Step source firings apart — each firing the source exactly
// Step times — and a last Run to the end record, access for access, the
// block stream of one Run to the end.
func TestSteppedRunsMatchOneRun(t *testing.T) {
	env := Env{M: 128, B: 16}
	stepped := 0
	for _, g := range stepGraphs(t) {
		for _, s := range append(Baselines(), PartitionedHomogeneous{}, PartitionedBatch{}, Partitioned(g, nil)) {
			plan, err := s.Prepare(g, env)
			if err != nil || plan.Step == 0 {
				continue // not this graph's shape, or no step declared
			}
			stepped++
			for _, warm := range []int64{0, 1, plan.Step, 3*plan.Step/2 + 1} {
				end := warm + 7*plan.Step + plan.Step/3
				one := record(t, g, plan.Caps, func(m *exec.Machine) error {
					if err := plan.Runner.Run(m, warm); err != nil {
						return err
					}
					return plan.Runner.Run(m, end)
				})
				steps := record(t, g, plan.Caps, func(m *exec.Machine) error {
					if err := plan.Runner.Run(m, warm); err != nil {
						return err
					}
					for m.SourceFirings() <= end-plan.Step {
						from := m.SourceFirings()
						if err := plan.Runner.Run(m, from+plan.Step); err != nil {
							return err
						}
						if got := m.SourceFirings() - from; got != plan.Step {
							t.Fatalf("%s/%s: a step fired the source %d times, want %d", g.Name(), s.Name(), got, plan.Step)
						}
					}
					return plan.Runner.Run(m, end)
				})
				if i := firstDiff(one, steps); i >= 0 {
					t.Errorf("%s/%s warm %d: stepped stream (%d accesses) leaves one Run's (%d) at access %d",
						g.Name(), s.Name(), warm, len(steps), len(one), i)
				}
			}
		}
	}
	if stepped < 8 {
		t.Fatalf("only %d stepped plans exercised", stepped)
	}
}

// firstDiff returns the first index where a and b differ, -1 when equal.
func firstDiff(a, b []int64) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// TestCompiledReplayRecordsDynamicStream states the periodicity the
// window fold relies on, in Compile's terms: Compile's looped replay — prologue once, then the period forever — records, access
// for access, the stream of the dynamic original driven the way Compile
// recorded it (Run calls M/2 source firings apart, which for a stepped
// plan is the stream of one Run). Each run stops right after the source
// firing that reaches the target, and the dynamic runners may fire
// downstream modules after it, so one stream must be a prefix of the
// other, and the shorter must reach several periods past the prologue.
func TestCompiledReplayRecordsDynamicStream(t *testing.T) {
	env := Env{M: 128, B: 16}
	for _, g := range stepGraphs(t) {
		for _, s := range append(Baselines(), PartitionedHomogeneous{}, PartitionedBatch{}, Partitioned(g, nil)) {
			if _, err := s.Prepare(g, env); err != nil {
				continue
			}
			c, err := Compile(g, s, env, 512, 100_000)
			if err != nil {
				t.Fatalf("%s/%s compile: %v", g.Name(), s.Name(), err)
			}
			target := 512 + 6*c.SourcePerPeriod
			replayed := record(t, g, c.Caps, func(m *exec.Machine) error { return c.Runner().Run(m, target) })
			plan, err := s.Prepare(g, env)
			if err != nil {
				t.Fatal(err)
			}
			dynamic := record(t, g, plan.Caps, func(m *exec.Machine) error {
				for m.SourceFirings() < target {
					if err := plan.Runner.Run(m, m.SourceFirings()+env.M/2); err != nil {
						return err
					}
				}
				return nil
			})
			n := min(len(replayed), len(dynamic))
			if i := firstDiff(replayed[:n], dynamic[:n]); i >= 0 {
				t.Errorf("%s/%s: replay leaves the dynamic stream at access %d of %d", g.Name(), s.Name(), i, n)
			}
			if n < len(replayed)*9/10 || n < len(dynamic)*9/10 {
				t.Errorf("%s/%s: replay recorded %d accesses, dynamic %d", g.Name(), s.Name(), len(replayed), len(dynamic))
			}
		}
	}
}
