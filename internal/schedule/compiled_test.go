package schedule

import (
	"fmt"
	"strings"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/sdf"
)

func TestCompileFlat(t *testing.T) {
	g := uniformPipeline(t, 6, 32)
	c, err := Compile(g, FlatTopo{}, testEnv, 0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Period) == 0 {
		t.Fatal("empty period")
	}
	// Flat homogeneous schedule: the occupancy recurs after every flat
	// period, one source firing, and each node fires exactly once per
	// source firing, so the period's firing count is nodes x
	// source-per-period.
	if c.SourcePerPeriod != g.Repetitions(g.Source()) {
		t.Errorf("source per period = %d, want one flat period, %d", c.SourcePerPeriod, g.Repetitions(g.Source()))
	}
	if got, want := Firings(c.Period), c.SourcePerPeriod*int64(g.NumNodes()); got != want {
		t.Errorf("period firings = %d, want %d", got, want)
	}
}

func TestCompiledReplayMatchesDynamic(t *testing.T) {
	g := uniformPipeline(t, 10, 64)
	env := Env{M: 128, B: 16}
	for _, s := range []Scheduler{FlatTopo{}, Scaled{S: 3}, PartitionedPipeline{}, PartitionedBatch{}} {
		c, err := Compile(g, s, env, 1024, 100_000)
		if err != nil {
			t.Fatalf("%s compile: %v", s.Name(), err)
		}
		// Replay and dynamic run must produce identical sink streams.
		dynamic := runPlan(t, g, s, env, 3000, 64)
		replayed := func() []int64 {
			m, err := exec.NewMachine(g, exec.Config{
				Cache:  cachesim.Config{Capacity: 4 * env.M, Block: env.B},
				Caps:   c.Caps,
				Values: true, CollectOutputs: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Runner().Run(m, 3000); err != nil {
				t.Fatalf("%s replay: %v", s.Name(), err)
			}
			if err := m.CheckConservation(); err != nil {
				t.Fatalf("%s replay conservation: %v", s.Name(), err)
			}
			return m.Outputs()
		}()
		n := len(dynamic)
		if len(replayed) < n {
			n = len(replayed)
		}
		if n < 16 {
			t.Fatalf("%s: only %d comparable outputs", s.Name(), n)
		}
		for i := 0; i < n; i++ {
			if dynamic[i] != replayed[i] {
				t.Fatalf("%s: replay diverges at output %d", s.Name(), i)
			}
		}
	}
}

func TestCompiledReplayCostEnvelope(t *testing.T) {
	// The compiled replay is the uninterrupted run, but Measure stops it
	// where a step of the replay ends rather than where the dynamic runner
	// settles, so the two windows hold slightly different firings: the
	// replay's cost must stay in the same envelope and keep the headline
	// advantage over the flat baseline.
	g := uniformPipeline(t, 10, 64)
	env := Env{M: 128, B: 16}
	s := PartitionedPipeline{}
	c, err := Compile(g, s, env, 1024, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	cacheCfg := cachesim.Config{Capacity: 2 * env.M, Block: env.B}
	dyn, err := Measure(g, s, env, cacheCfg, 1024, 2048)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Measure(g, compiledScheduler{c}, env, cacheCfg, 1024, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissesPerItem > 1.5*dyn.MissesPerItem {
		t.Errorf("compiled %.4f vs dynamic %.4f misses/item: outside envelope",
			rep.MissesPerItem, dyn.MissesPerItem)
	}
	flat, err := Measure(g, FlatTopo{}, env, cacheCfg, 1024, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MissesPerItem*5 > flat.MissesPerItem {
		t.Errorf("compiled %.4f lost the advantage over flat %.4f",
			rep.MissesPerItem, flat.MissesPerItem)
	}
}

// compiledScheduler adapts a Compiled schedule to the Scheduler interface
// for Measure.
type compiledScheduler struct{ c *Compiled }

func (cs compiledScheduler) Name() string { return "compiled" }
func (cs compiledScheduler) Prepare(*sdf.Graph, Env) (*Plan, error) {
	return &Plan{Caps: append([]int64(nil), cs.c.Caps...), Runner: cs.c.Runner()}, nil
}

// TestCompiledTextRoundTrip: Write's format is a caps line, the period's
// source firings, then one "fire <node> x<count>" line per step under the
// prologue and period headers.
func TestCompiledTextRoundTrip(t *testing.T) {
	g := uniformPipeline(t, 6, 32)
	c, err := Compile(g, PartitionedPipeline{}, Env{M: 64, B: 16}, 512, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Prologue) == 0 || len(c.Period) == 0 {
		t.Fatalf("prologue %d steps, period %d: want both non-empty", len(c.Prologue), len(c.Period))
	}
	var sb strings.Builder
	if err := c.Write(&sb); err != nil {
		t.Fatal(err)
	}
	caps := "caps"
	for _, cp := range c.Caps {
		caps += fmt.Sprintf(" %d", cp)
	}
	want := []string{caps, fmt.Sprintf("meta source-per-period %d", c.SourcePerPeriod), "prologue"}
	for i, steps := range [][]Step{c.Prologue, c.Period} {
		if i == 1 {
			want = append(want, "period")
		}
		for _, s := range steps {
			want = append(want, fmt.Sprintf("fire %d x%d", s.Node, s.Count))
		}
	}
	if got := sb.String(); got != strings.Join(want, "\n")+"\n" {
		t.Errorf("Write:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}

func TestCompileValidation(t *testing.T) {
	g := uniformPipeline(t, 4, 8)
	if _, err := Compile(g, FlatTopo{}, testEnv, 0, 0); err == nil {
		t.Error("maxSource=0 accepted")
	}
	if _, err := Compile(g, PartitionedPipeline{}, Env{}, 0, 100); err == nil {
		t.Error("bad env accepted")
	}
}

func TestLatencyTradeoff(t *testing.T) {
	// Batching schedulers must have higher latency than the flat schedule
	// — the price of cache efficiency (E18).
	g := uniformPipeline(t, 10, 128)
	env := Env{M: 256, B: 16}
	cacheCfg := cachesim.Config{Capacity: 2 * env.M, Block: env.B}
	flat, err := Measure(g, FlatTopo{}, env, cacheCfg, 1024, 2048)
	if err != nil {
		t.Fatal(err)
	}
	part, err := Measure(g, PartitionedPipeline{}, env, cacheCfg, 1024, 2048)
	if err != nil {
		t.Fatal(err)
	}
	// The flat schedule pushes each item through within its own period:
	// zero steady-state latency at item granularity. The partitioned
	// schedule holds items in Θ(M) cross buffers.
	if flat.MeanLatency != 0 {
		t.Errorf("flat latency = %.1f, want 0", flat.MeanLatency)
	}
	if part.MeanLatency < float64(env.M) {
		t.Errorf("partitioned latency %.1f should be at least M=%d (items wait in Θ(M) buffers)",
			part.MeanLatency, env.M)
	}
	if part.MaxLatency < int64(part.MeanLatency) {
		t.Error("max latency below mean")
	}
}
