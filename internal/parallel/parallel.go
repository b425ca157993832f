// Package parallel implements the paper's asynchronous/parallel extension
// (§3, §7): partitioned schedules where any processor may claim any
// schedulable component. The paper notes the homogeneous and pipeline
// schedules "readily generalize" to this case; multiprocessor scheduling
// proper is left as future work, so this package is the reproduction of
// that extension point.
//
// Execution is simulated deterministically: P logical processors, each
// with a private simulated cache, greedily claim schedulable components in
// the I/O cost model (a processor's clock advances by the block transfers
// it performs). Buffers and module state are shared and component
// executions are atomic, which models the coarse-grained locking the
// half-full/empty-full claiming rules are designed to permit. Processors
// prefer re-claiming the component they ran last (cache affinity).
//
// The claiming rules are the uniprocessor partitioned runners' own
// (schedule.Claims); what this package adds is the claim loop. The
// executor is a schedule.Scheduler, so every run is one
// schedule.Window.Measure: Window is that measured window with a sink that
// receives every block access, tagged with the executing processor, in
// global emission order — the shared-L2 hierarchy paths' profiler or
// simulator (MeasureShared, RunShared), where all private-L1 miss streams
// contend for one shared L2 in exactly that order, or a trace.ProcLog
// (RunTraced) for a later replay.
//
// One determinism invariant makes the measurement paths trustworthy: the
// executor's claiming decisions depend only on the graph, the partition,
// and the private design caches (Config.Cache) — never on the hierarchy
// being evaluated — so one recorded interleaving is valid input for every
// (L1, L2) grid point at once.
package parallel

import (
	"errors"
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/obs"
	"streamsched/internal/partition"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// ErrDeadlock is returned when no component is schedulable before the
// target is reached.
var ErrDeadlock = errors.New("parallel: no schedulable component")

// Rule selects the claiming rule a run uses. The zero value picks by graph
// shape, matching the uniprocessor partitioned schedulers.
type Rule int

const (
	// AutoRule picks HomogeneousRule for homogeneous dags, PipelineRule
	// for pipelines. A uniform pipeline is both; homogeneous wins, as in
	// streamsched.SimulateParallel.
	AutoRule Rule = iota
	// HomogeneousRule is the empty-full batching rule: a component is
	// claimable when every inbound cross buffer holds a full batch and
	// every outbound cross buffer is empty.
	HomogeneousRule
	// PipelineRule is the half-full rule: a segment is claimable when its
	// input is more than half full and its output at most half full.
	PipelineRule
)

// String returns the rule name.
func (r Rule) String() string {
	switch r {
	case AutoRule:
		return "auto"
	case HomogeneousRule:
		return "homogeneous"
	case PipelineRule:
		return "pipeline"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// Config describes a simulated multiprocessor run.
type Config struct {
	// Procs is the number of logical processors (>= 1).
	Procs int
	// Env carries M (component bound, batch size) and B.
	Env schedule.Env
	// Cache is the per-processor private cache configuration. Its block
	// size is also the granularity recorded traces use.
	Cache cachesim.Config
	// Rule selects the claiming rule; AutoRule picks by graph shape.
	Rule Rule
}

// Result summarises a parallel run (for RunTraced and the shared paths,
// the measured window of one).
type Result struct {
	Procs       int
	PerProc     []cachesim.Stats
	Executions  []int64 // component executions per processor
	TotalMisses int64
	// MakespanBlocks is the maximum per-processor block-transfer count: the
	// run's critical path in the I/O cost model.
	MakespanBlocks int64
	// BusyBlocks is the total block-transfer work across processors.
	BusyBlocks  int64
	SourceFired int64
	InputItems  int64
}

// Run executes g under partition p (nil: partition.Auto at cfg.Env.M) on
// cfg.Procs simulated processors, with cfg's claiming rule, until the
// source has fired at least target times, and summarises the whole run.
func Run(g *sdf.Graph, p *partition.Partition, cfg Config, target int64) (*Result, error) {
	res, _, err := Window{Span: "parallel"}.Measure(g, p, cfg, 0, target)
	return res, err
}

// RunTraced is a Window recording into a trace.ProcLog, with the window
// mark at the log's MarkWindow: the trace the pointwise shared oracles
// (hierarchy.SimulateSharedLog) and ProfileShared replay. The returned
// Result summarises the measured window.
func RunTraced(g *sdf.Graph, p *partition.Partition, cfg Config, warm, measured int64) (*Result, *trace.ProcLog, error) {
	plog, err := trace.NewProcLog(cfg.Procs)
	if err != nil {
		return nil, nil, err
	}
	plog.SetMetrics(obs.Or(cfg.Env.Metrics))
	res, _, err := Window{Span: "run_traced", Sink: plog.RecordRun, Mark: plog.MarkWindow}.Measure(g, p, cfg, warm, measured)
	if err != nil {
		return nil, nil, err
	}
	return res, plog, nil
}

// Window is the multiprocessor's measured window: a schedule.Window whose
// scheduler is the executor. Its fields are what differs between runs.
type Window struct {
	// Span names the obs span, suffixed with "[<rule> P=<procs>]".
	Span string
	// Sink, when non-nil, receives every block access — tagged with its
	// processor, in global emission order — a run of blocks at a time. The
	// interleaving is decided by the executor's private-cache clocks alone,
	// so it is independent of whatever hierarchy the sink evaluates, which
	// is what lets one run answer a whole (L1, L2) grid exactly.
	Sink func(proc int, base, n int64)
	// Warm, when non-nil, starts the warm-up on whatever Sink feeds, as
	// Mark starts the window (schedule.Window.Warm).
	Warm func()
	// Mark, when non-nil, starts the measured window on whatever Sink feeds.
	Mark func()
	// Profile, when non-nil, reads the results off whatever Sink fed, after
	// a conserved window; its error fails the measurement.
	Profile func() error
}

// Measure executes g under partition p on cfg for warm source firings,
// marks, and executes measured more. It returns the measured window's
// Result and the number of block accesses the processors made (warm-up and
// window), which it also publishes as trace.accesses when there is a sink.
func (w Window) Measure(g *sdf.Graph, p *partition.Partition, cfg Config, warm, measured int64) (*Result, int64, error) {
	var r *runner
	_, run, err := schedule.Window{
		Span:  w.Span,
		Cache: cfg.Cache,
		Setup: func(_ *exec.Machine, plan *schedule.Plan) { r = plan.Runner.(*runner) },
		Warm: func(*exec.Machine) {
			if w.Warm != nil {
				w.Warm()
			}
		},
		Mark: func(*exec.Machine) {
			if w.Mark != nil {
				w.Mark()
			}
			r.mark()
		},
		Profile: w.Profile,
	}.Measure(g, executor{p: p, cfg: cfg, sink: w.Sink}, cfg.Env, warm, measured)
	if err != nil {
		return nil, 0, err
	}
	res, accesses := r.result(run)
	if w.Sink != nil {
		obs.Or(cfg.Env.Metrics).Counter("trace.accesses").Add(accesses)
	}
	return res, accesses, nil
}

// executor is the multiprocessor as a schedule.Scheduler. Its plan is the
// uniprocessor partitioned plan of its rule — the same buffers, cross
// edges and claims — driven by a runner in which P processors claim.
type executor struct {
	p    *partition.Partition
	cfg  Config
	sink func(proc int, base, n int64)
}

// Name implements schedule.Scheduler.
func (x executor) Name() string { return fmt.Sprintf("%s P=%d", x.cfg.Rule, x.cfg.Procs) }

// Prepare implements schedule.Scheduler: it resolves the rule and the
// partition (nil: partition.Auto at env.M), plans the matching
// uniprocessor schedule, and gives every processor a private cache whose
// accesses go to the sink.
func (x executor) Prepare(g *sdf.Graph, env schedule.Env) (*schedule.Plan, error) {
	if x.cfg.Procs < 1 {
		return nil, fmt.Errorf("parallel: need >= 1 processor, got %d", x.cfg.Procs)
	}
	rule, err := resolveRule(g, x.cfg.Rule)
	if err != nil {
		return nil, err
	}
	p := x.p
	if p == nil {
		if p, err = partition.Auto(g, env.M); err != nil {
			return nil, err
		}
	}
	var s schedule.Scheduler = schedule.PartitionedHomogeneous{P: p}
	if rule == PipelineRule {
		s = schedule.PartitionedPipeline{P: p}
	}
	plan, err := s.Prepare(g, env)
	if err != nil {
		return nil, err
	}
	r := &runner{
		claims: plan.Runner.(schedule.Claims),
		caches: make([]*cachesim.Cache, x.cfg.Procs),
		clock:  make([]int64, x.cfg.Procs),
		last:   make([]int, x.cfg.Procs),
		execs:  make([]int64, x.cfg.Procs),
		marked: make([]int64, x.cfg.Procs),
	}
	for i := range r.caches {
		if r.caches[i], err = cachesim.New(x.cfg.Cache); err != nil {
			return nil, err
		}
		if x.sink != nil {
			proc := i
			r.caches[i].SetObserver(func(base, n int64) { x.sink(proc, base, n) })
		}
		r.last[i] = -1
	}
	return &schedule.Plan{Caps: plan.Caps, Runner: r, CrossEdges: plan.CrossEdges}, nil
}

// resolveRule maps AutoRule to the graph's shape.
func resolveRule(g *sdf.Graph, r Rule) (Rule, error) {
	switch r {
	case HomogeneousRule:
		if !g.IsHomogeneous() {
			return 0, fmt.Errorf("parallel: %s is not homogeneous", g.Name())
		}
		return r, nil
	case PipelineRule:
		if !g.IsPipeline() {
			return 0, fmt.Errorf("parallel: %s is not a pipeline", g.Name())
		}
		return r, nil
	case AutoRule:
		switch {
		case g.IsHomogeneous():
			return HomogeneousRule, nil
		case g.IsPipeline():
			return PipelineRule, nil
		default:
			return 0, fmt.Errorf("parallel: %s is neither homogeneous nor a pipeline", g.Name())
		}
	default:
		return 0, fmt.Errorf("parallel: unknown rule %d", int(r))
	}
}

// runner is the greedy list-scheduling loop: the least-loaded processor
// claims a claimable component, preferring the one it ran last (cache
// affinity), and executes it atomically on its private cache. Its state
// carries over between Run calls, so warm-up and window are one run. Its
// plan has no step: a claim runs whole and settles at its target
// (schedule.Claims.Execute), and the loop's clocks and affinities are in
// no recurrence key, so a window runs as one Run call and never folds.
type runner struct {
	claims schedule.Claims
	caches []*cachesim.Cache
	clock  []int64 // block transfers per processor
	last   []int   // component each processor ran last (-1: none)
	execs  []int64 // component executions per processor since the mark
	marked []int64 // misses per processor at the mark
}

// Run implements schedule.Runner.
func (r *runner) Run(m *exec.Machine, target int64) error {
	for m.SourceFirings() < target {
		proc := 0
		for i := 1; i < len(r.clock); i++ {
			if r.clock[i] < r.clock[proc] {
				proc = i
			}
		}
		comp := r.last[proc]
		if comp < 0 || !r.claims.Claimable(m, comp) {
			comp = -1
			for c := 0; c < r.claims.Components(); c++ {
				if r.claims.Claimable(m, c) {
					comp = c
					break
				}
			}
		}
		if comp < 0 {
			return fmt.Errorf("%w: at %d source firings", ErrDeadlock, m.SourceFirings())
		}
		cache := r.caches[proc]
		m.SetCache(cache)
		before := cache.Stats().Misses
		if err := r.claims.Execute(m, comp, target); err != nil {
			return err
		}
		r.clock[proc] += cache.Stats().Misses - before
		r.last[proc] = comp
		r.execs[proc]++
	}
	return nil
}

// mark starts the measured window: executions and misses count from here.
func (r *runner) mark() {
	clear(r.execs)
	for i, c := range r.caches {
		r.marked[i] = c.Stats().Misses
	}
}

// result summarises the window since the mark under run's header, and
// counts every access the processors made. Per-processor Stats are
// cumulative (cache stats are not windowed); the miss-derived aggregates
// are diffed.
func (r *runner) result(run schedule.Run) (*Result, int64) {
	res := &Result{
		Procs:       len(r.caches),
		PerProc:     make([]cachesim.Stats, len(r.caches)),
		Executions:  r.execs,
		SourceFired: run.SourceFired,
		InputItems:  run.InputItems,
	}
	var accesses int64
	for i, c := range r.caches {
		res.PerProc[i] = c.Stats()
		miss := res.PerProc[i].Misses - r.marked[i]
		res.TotalMisses += miss
		res.BusyBlocks += miss
		res.MakespanBlocks = max(res.MakespanBlocks, miss)
		accesses += res.PerProc[i].Accesses
	}
	return res, accesses
}
