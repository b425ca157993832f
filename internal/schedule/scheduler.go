// Package schedule implements uniprocessor schedulers for streaming graphs:
// the paper's partitioned schedulers (§3: pipeline half-full rule,
// homogeneous T=M batching, inhomogeneous T batching) and the baselines the
// paper is evaluated against (§6: naive single-appearance schedules,
// Sermulins-style execution scaling, Kohli-style greedy locality).
//
// A Scheduler turns a graph into a Plan: per-channel buffer capacities plus
// a Runner that drives an exec.Machine. The Measure harness runs a plan
// against the cache simulator and reports misses per input item — the
// quantity all of the paper's bounds are stated in.
package schedule

import (
	"errors"
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/obs"
	"streamsched/internal/sdf"
)

// Errors reported by schedulers.
var (
	ErrDeadlock    = errors.New("schedule: no module can fire (deadlock)")
	ErrUnsupported = errors.New("schedule: scheduler does not support this graph")
)

// Env carries the machine parameters a scheduler may use when planning.
type Env struct {
	// M is the cache capacity in words the schedule is designed for.
	M int64
	// B is the cache block size in words.
	B int64
	// Metrics optionally routes this run's instrumentation (stage spans,
	// exec.* and trace.* counters) into a specific registry. Nil falls back
	// to the process-wide obs.Default(), which is itself nil — fully
	// disabled — unless a CLI session or test installed one.
	Metrics *obs.Registry
	// Deprecated: ProfileJobs and DecodeJobs are ignored (every profile
	// runs inline); kept only because the frozen bench/ module names them.
	ProfileJobs, DecodeJobs int
}

// metrics resolves the environment's registry (explicit, else the process
// default).
func (e Env) metrics() *obs.Registry { return obs.Or(e.Metrics) }

// Runner drives a machine until the source has fired at least target times
// (a cumulative count since machine creation, so runs are resumable).
type Runner interface {
	Run(m *exec.Machine, target int64) error
}

// Plan is a scheduler's output for a specific graph: buffer capacities for
// every channel and a Runner implementing the firing policy. CrossEdges,
// when set by a partitioned scheduler, lists the partition's cross edges
// so the harness can attribute misses per memory-object class.
type Plan struct {
	Caps       []int64
	Runner     Runner
	CrossEdges []sdf.EdgeID
}

// Scheduler plans the execution of a streaming graph.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Prepare builds a plan for g under env.
	Prepare(g *sdf.Graph, env Env) (*Plan, error)
}

// Result summarises a measured run.
type Result struct {
	Scheduler     string
	Graph         string
	SourceFired   int64 // source firings during the measured window
	InputItems    int64 // items produced by the source during the window
	SinkItems     int64
	Stats         cachesim.Stats // cache stats for the measured window
	MissesPerItem float64        // Stats.Misses / InputItems
	BufferWords   int64          // total buffer capacity the plan allocated
	// ClassMisses attributes the window's misses to memory-object classes
	// (module state vs cross-edge buffers vs internal buffers) — the two
	// controllable miss sources named in the paper's introduction.
	ClassMisses cachesim.ClassStats
	// MeanLatency and MaxLatency report item latency in source items: how
	// many newer inputs had entered the graph when each output's inputs
	// were finally consumed at the sink. Batching schedules trade latency
	// for misses; experiment E18 maps the tradeoff.
	MeanLatency float64
	MaxLatency  int64
}

// Measure plans g with s, executes warm source firings to reach steady
// state, then measures the next (measured) source firings against the cache
// simulator and reports misses per input item.
func Measure(g *sdf.Graph, s Scheduler, env Env, cacheCfg cachesim.Config, warm, measured int64) (*Result, error) {
	if measured <= 0 {
		return nil, fmt.Errorf("schedule: measured window must be positive, got %d", measured)
	}
	reg := env.metrics()
	sp := reg.StartSpan("simulate[" + s.Name() + "]")
	defer sp.End()
	stage := sp.Start("plan")
	plan, err := s.Prepare(g, env)
	stage.End()
	if err != nil {
		return nil, fmt.Errorf("schedule: prepare %s: %w", s.Name(), err)
	}
	m, err := exec.NewMachine(g, exec.Config{
		Cache: cacheCfg, Caps: plan.Caps,
		TrackLatency: g.Source() != g.Sink(),
	})
	if err != nil {
		return nil, fmt.Errorf("schedule: machine for %s: %w", s.Name(), err)
	}
	m.ClassifyLayout(plan.CrossEdges)
	stage = sp.Start("warm")
	if warm > 0 {
		if err := plan.Runner.Run(m, warm); err != nil {
			return nil, fmt.Errorf("schedule: warmup %s: %w", s.Name(), err)
		}
	}
	stage.End()
	stage = sp.Start("run")
	defer stage.End()
	m.Cache().ResetStats()
	m.ResetLatency()
	fired0, items0 := m.SourceFirings(), m.InputItems()
	sink0 := m.SinkItems()
	if err := plan.Runner.Run(m, fired0+measured); err != nil {
		return nil, fmt.Errorf("schedule: run %s: %w", s.Name(), err)
	}
	stats := m.Cache().Stats()
	items := m.InputItems() - items0
	res := &Result{
		Scheduler:   s.Name(),
		Graph:       g.Name(),
		SourceFired: m.SourceFirings() - fired0,
		InputItems:  items,
		SinkItems:   m.SinkItems() - sink0,
		Stats:       stats,
		ClassMisses: m.Cache().ClassMisses(),
	}
	res.MeanLatency, res.MaxLatency = m.Latency()
	for _, c := range plan.Caps {
		res.BufferWords += c
	}
	if items > 0 {
		res.MissesPerItem = float64(stats.Misses) / float64(items)
	}
	if err := m.CheckConservation(); err != nil {
		return nil, fmt.Errorf("schedule: %s broke conservation: %w", s.Name(), err)
	}
	if reg != nil {
		reg.Counter("exec.accesses").Add(stats.Accesses)
		reg.Counter("exec.hits").Add(stats.Hits)
		reg.Counter("exec.misses").Add(stats.Misses)
		reg.Counter("exec.source.firings").Add(res.SourceFired)
	}
	return res, nil
}

// minBufCaps returns the minimum legal capacity for every channel.
func minBufCaps(g *sdf.Graph) []int64 {
	caps := make([]int64, g.NumEdges())
	for e := range caps {
		caps[e] = g.MinBuf(sdf.EdgeID(e))
	}
	return caps
}

// periodCaps returns capacities sufficient for s back-to-back periods of
// the single-appearance schedule: cap(e) = s·reps(from)·out(e).
func periodCaps(g *sdf.Graph, s int64) []int64 {
	caps := make([]int64, g.NumEdges())
	for e := range caps {
		ed := g.Edge(sdf.EdgeID(e))
		c := s * g.Repetitions(ed.From) * ed.Out
		if mb := g.MinBuf(sdf.EdgeID(e)); c < mb {
			c = mb
		}
		caps[e] = c
	}
	return caps
}
