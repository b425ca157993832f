// Package schedule implements uniprocessor schedulers for streaming graphs:
// the paper's partitioned schedulers (§3: pipeline half-full rule,
// homogeneous T=M batching, inhomogeneous T batching) and the baselines the
// paper is evaluated against (§6: naive single-appearance schedules,
// Sermulins-style execution scaling, Kohli-style greedy locality).
//
// A Scheduler turns a graph into a Plan: per-channel buffer capacities plus
// a Runner that drives an exec.Machine. ByName, Partitioned and Baselines
// are the one registry that turns a name or a graph shape into a Scheduler.
//
// Every measurement is the same window — plan, warm up, mark, run the
// measured firings, check conservation — and Window.Measure is the one
// place it is written. Measure (one simulated cache), MeasureCurveOrgs
// (record, then profile every organisation), MeasureHier (record, then
// profile an (L1, L2) grid) and MeasureHierPoint (the exact two-level
// simulator as the recorder) each state only what they count and how the
// window is marked; all report misses per input item, the quantity the
// paper's bounds are stated in, under one Run header. The multiprocessor
// (internal/parallel) is one more Scheduler, over the partitioned runners'
// Claims, measured by the same window.
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
	// ErrBudget refuses a window whose estimated work is past Env.Budget:
	// the request asked for too much, so it wraps sdf.ErrUnprocessable.
	ErrBudget = fmt.Errorf("schedule: window past the work budget%.0w", sdf.ErrUnprocessable)
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
	// Budget, when positive, is a ceiling on the block accesses one
	// Window.Measure may make, warm-up included; a window estimated past
	// it fails with ErrBudget before it runs past it. Zero means none.
	Budget int64
	// Deprecated: ProfileJobs and DecodeJobs are ignored (every profile
	// runs inline); kept only because the frozen bench/ module names them.
	ProfileJobs, DecodeJobs int
}

// metrics resolves the environment's registry (explicit, else the process
// default).
func (e Env) metrics() *obs.Registry { return obs.Or(e.Metrics) }

// Runner drives a machine until the source has fired at least target times
// (a cumulative count since machine creation, so runs are resumable). The
// package's dynamic runners decide from the machine's channel occupancy
// alone and stop right after the source's target-th firing (demand-driven
// at the end of that sweep), the batch runners at the end of the batch
// that reaches it; the compiled runner keeps its position in the schedule.
// Each stops where it resumes exactly: Run(m, a) then Run(m, b) runs what
// Run(m, b) alone runs.
type Runner interface {
	Run(m *exec.Machine, target int64) error
}

// burstRunner is a runner whose Run can stop in the middle of a burst.
// settle finishes the burst as the end of the input would, never firing
// the source; Window.Measure settles after its warm-up and its window,
// BufferUtilization after its probe, and nothing else settles, so a chain
// of steps stays one run. appendCursor appends what the runner carries
// between Run calls to the recurrence key, which is a period only when
// that recurs with the machine's state.
type burstRunner interface {
	settle(m *exec.Machine) error
	appendCursor(dst []int64) []int64
}

// Plan is a scheduler's output for a specific graph: buffer capacities for
// every channel and a Runner implementing the firing policy. CrossEdges,
// when set by a partitioned scheduler, lists the partition's cross edges
// so the harness can attribute misses per memory-object class.
type Plan struct {
	Caps       []int64
	Runner     Runner
	CrossEdges []sdf.EdgeID
	// Step, when positive, is the Runner's step in source firings: from
	// wherever a Run call stopped, Run(m, m.SourceFirings()+Step) fires
	// the source exactly Step times, and any chain of such calls followed
	// by Run(m, end) runs exactly what one Run(m, end) runs. Every plan
	// this package prepares has one: a batch, or for the dynamic runners
	// one period's source firings. Zero, which only internal/parallel's
	// claim loop plans, means the runner must reach its end in one call.
	Step int64
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
	Run
	Stats         cachesim.Stats // cache stats for the measured window
	MissesPerItem float64        // Stats.Misses / InputItems
	// ClassMisses attributes the window's misses to memory-object classes
	// (module state vs cross-edge buffers vs internal buffers) — the two
	// controllable miss sources named in the paper's introduction.
	ClassMisses cachesim.ClassStats
}

// Measure plans g with s, executes warm source firings to reach steady
// state, then measures the next (measured) source firings against the cache
// simulator and reports misses per input item.
func Measure(g *sdf.Graph, s Scheduler, env Env, cacheCfg cachesim.Config, warm, measured int64) (*Result, error) {
	m, run, err := Window{
		Span:  "simulate",
		Cache: cacheCfg,
		Setup: func(m *exec.Machine, plan *Plan) { m.ClassifyLayout(plan.CrossEdges) },
		Mark:  func(m *exec.Machine) { m.Cache().ResetStats() },
	}.Measure(g, s, env, warm, measured)
	if err != nil {
		return nil, err
	}
	res := &Result{Run: run, Stats: m.Cache().Stats(), ClassMisses: m.Cache().ClassMisses()}
	if run.InputItems > 0 {
		res.MissesPerItem = float64(res.Stats.Misses) / float64(run.InputItems)
	}
	if reg := env.metrics(); reg != nil {
		reg.Counter("exec.accesses").Add(res.Stats.Accesses)
		reg.Counter("exec.misses").Add(res.Stats.Misses)
		reg.Counter("exec.source.firings").Add(run.SourceFired)
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
