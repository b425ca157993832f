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
	// the key Compile cuts its period at.
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
// fold and Compile rest on: every plan has a step, and after any warm-up,
// Run calls Step source firings apart — each firing the source exactly
// Step times — and a last Run to the end record, access for access, the
// block stream of one Run to the end. Each stream runs on its own plan,
// since a runner may carry a cursor from one Run to the next.
func TestSteppedRunsMatchOneRun(t *testing.T) {
	env := Env{M: 128, B: 16}
	covered := map[string]bool{}
	for _, g := range stepGraphs(t) {
		for _, s := range append(Baselines(), PartitionedHomogeneous{}, PartitionedBatch{}, Partitioned(g, nil)) {
			plan, err := s.Prepare(g, env)
			if err != nil {
				continue // not this graph's shape
			}
			if plan.Step <= 0 {
				t.Fatalf("%s/%s: plan has no step", g.Name(), s.Name())
			}
			covered[s.Name()] = true
			for _, warm := range []int64{0, 1, plan.Step, 3*plan.Step/2 + 1} {
				end := warm + 7*plan.Step + plan.Step/3
				one := record(t, g, plan.Caps, func(m *exec.Machine) error {
					return prepare(t, g, s, env).Runner.Run(m, end)
				})
				steps := record(t, g, plan.Caps, func(m *exec.Machine) error {
					r := prepare(t, g, s, env).Runner
					if err := r.Run(m, warm); err != nil {
						return err
					}
					for m.SourceFirings() <= end-plan.Step {
						from := m.SourceFirings()
						if err := r.Run(m, from+plan.Step); err != nil {
							return err
						}
						if got := m.SourceFirings() - from; got != plan.Step {
							t.Fatalf("%s/%s: a step fired the source %d times, want %d", g.Name(), s.Name(), got, plan.Step)
						}
					}
					return r.Run(m, end)
				})
				if i := firstDiff(one, steps); i >= 0 {
					t.Errorf("%s/%s warm %d: stepped stream (%d accesses) leaves one Run's (%d) at access %d",
						g.Name(), s.Name(), warm, len(steps), len(one), i)
				}
			}
		}
	}
	for _, name := range []string{"flat-topo", "scaled(s=4)", "demand-driven", "kohli-greedy", "partitioned-pipeline", "partitioned-homog", "partitioned-batch"} {
		if !covered[name] {
			t.Errorf("%s never ran", name)
		}
	}
}

// prepare plans g with s under env.
func prepare(t *testing.T, g *sdf.Graph, s Scheduler, env Env) *Plan {
	t.Helper()
	plan, err := s.Prepare(g, env)
	if err != nil {
		t.Fatal(err)
	}
	return plan
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
// window fold relies on, in Compile's terms: Compile's looped replay —
// prologue once, then the period forever — records, access for access,
// the stream of one uninterrupted Run of the dynamic original. Both run to
// six periods past the prologue; the replay stops at the end of a step and
// a batch runner at the end of its batch, so one stream must be a prefix
// of the other.
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
			var prologue int64
			for _, st := range c.Prologue {
				if st.Node == g.Source() {
					prologue += st.Count
				}
			}
			target := prologue + 6*c.SourcePerPeriod
			replayed := record(t, g, c.Caps, func(m *exec.Machine) error { return c.Runner().Run(m, target) })
			dynamic := record(t, g, c.Caps, func(m *exec.Machine) error { return prepare(t, g, s, env).Runner.Run(m, target) })
			n := min(len(replayed), len(dynamic))
			if i := firstDiff(replayed[:n], dynamic[:n]); i >= 0 {
				t.Errorf("%s/%s: replay leaves the dynamic stream at access %d of %d", g.Name(), s.Name(), i, n)
			}
		}
	}
}
