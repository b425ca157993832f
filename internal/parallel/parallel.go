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
// Runs can emit their traces: RunInto hands every block access, tagged
// with the executing processor, to a sink in global emission order — the
// shared-L2 hierarchy paths' profiler or simulator (MeasureShared,
// RunShared), where all private-L1 miss streams contend for one shared L2
// in exactly that order, or a trace.ProcLog (RunTraced) for a later
// replay.
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
	"math"

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

// RunHomogeneous executes a homogeneous dag under partition p on cfg.Procs
// simulated processors until the source has fired at least target times.
// When p is nil, partition.Auto(g, M) is used.
func RunHomogeneous(g *sdf.Graph, p *partition.Partition, cfg Config, target int64) (*Result, error) {
	cfg.Rule = HomogeneousRule
	st, err := newState(g, p, cfg)
	if err != nil {
		return nil, err
	}
	return st.run(target)
}

// RunPipeline executes a pipeline under partition p on cfg.Procs simulated
// processors with the half-full claiming rule.
func RunPipeline(g *sdf.Graph, p *partition.Partition, cfg Config, target int64) (*Result, error) {
	cfg.Rule = PipelineRule
	st, err := newState(g, p, cfg)
	if err != nil {
		return nil, err
	}
	return st.run(target)
}

// Run executes g under cfg's claiming rule (AutoRule picks by shape).
func Run(g *sdf.Graph, p *partition.Partition, cfg Config, target int64) (*Result, error) {
	st, err := newState(g, p, cfg)
	if err != nil {
		return nil, err
	}
	return st.run(target)
}

// state is the shared simulation state.
type state struct {
	g        *sdf.Graph
	p        *partition.Partition
	cfg      Config
	m        *exec.Machine
	members  [][]sdf.NodeID
	inCross  [][]sdf.EdgeID
	outCross [][]sdf.EdgeID
	caches   []*cachesim.Cache
	target   int64

	// Scheduling state persists across drive calls so a warm phase and a
	// measured phase form one continuous run.
	clock    []int64
	lastComp []int
	execs    []int64

	schedulable func(int) bool
	execute     func(int) error
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

func newState(g *sdf.Graph, p *partition.Partition, cfg Config) (*state, error) {
	if cfg.Procs < 1 {
		return nil, fmt.Errorf("parallel: need >= 1 processor, got %d", cfg.Procs)
	}
	rule, err := resolveRule(g, cfg.Rule)
	if err != nil {
		return nil, err
	}
	cfg.Rule = rule
	if p == nil {
		p, err = partition.Auto(g, cfg.Env.M)
		if err != nil {
			return nil, err
		}
	}
	// Reuse the uniprocessor scheduler's buffer sizing.
	var plan *schedule.Plan
	switch rule {
	case HomogeneousRule:
		plan, err = schedule.PartitionedHomogeneous{P: p}.Prepare(g, cfg.Env)
	case PipelineRule:
		plan, err = schedule.PartitionedPipeline{P: p}.Prepare(g, cfg.Env)
	}
	if err != nil {
		return nil, err
	}
	st := &state{g: g, p: p, cfg: cfg}
	st.m, err = exec.NewMachine(g, exec.Config{Cache: cfg.Cache, Caps: plan.Caps})
	if err != nil {
		return nil, err
	}
	st.members = p.Members(g)
	st.inCross = make([][]sdf.EdgeID, p.K)
	st.outCross = make([][]sdf.EdgeID, p.K)
	for _, e := range p.CrossEdges(g) {
		from := p.Assign[g.Edge(e).From]
		to := p.Assign[g.Edge(e).To]
		st.outCross[from] = append(st.outCross[from], e)
		st.inCross[to] = append(st.inCross[to], e)
	}
	st.caches = make([]*cachesim.Cache, cfg.Procs)
	for i := range st.caches {
		st.caches[i], err = cachesim.New(cfg.Cache)
		if err != nil {
			return nil, err
		}
	}
	st.clock = make([]int64, cfg.Procs)
	st.lastComp = make([]int, cfg.Procs)
	st.execs = make([]int64, cfg.Procs)
	for i := range st.lastComp {
		st.lastComp[i] = -1
	}
	switch rule {
	case HomogeneousRule:
		st.setHomogeneousRule()
	case PipelineRule:
		st.setPipelineRule()
	}
	return st, nil
}

// setHomogeneousRule installs the empty-full batching rule.
func (st *state) setHomogeneousRule() {
	t := st.cfg.Env.M
	st.schedulable = func(c int) bool {
		for _, e := range st.inCross[c] {
			if st.m.Buf(e).Len() < t {
				return false
			}
		}
		for _, e := range st.outCross[c] {
			if st.m.Buf(e).Len() != 0 {
				return false
			}
		}
		return true
	}
	st.execute = func(c int) error {
		for round := int64(0); round < t; round++ {
			for _, v := range st.members[c] {
				if err := st.m.Fire(v); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// setPipelineRule installs the half-full claiming rule.
func (st *state) setPipelineRule() {
	src := st.g.Source()
	st.schedulable = func(c int) bool {
		// Input more than half full (or external for the first segment) and
		// output at most half full (or the sink).
		if len(st.inCross[c]) == 1 {
			buf := st.m.Buf(st.inCross[c][0])
			if 2*buf.Len() <= buf.Cap() {
				return false
			}
		}
		if len(st.outCross[c]) == 1 {
			buf := st.m.Buf(st.outCross[c][0])
			if 2*buf.Len() > buf.Cap() {
				return false
			}
		}
		return true
	}
	st.execute = func(c int) error {
		for {
			progress := false
			for _, v := range st.members[c] {
				for st.m.CanFire(v) {
					if v == src && st.m.SourceFirings() >= st.target {
						break
					}
					if err := st.m.Fire(v); err != nil {
						return err
					}
					progress = true
				}
			}
			if !progress {
				return nil
			}
		}
	}
}

// run drives to target source firings and summarises the whole run.
func (st *state) run(target int64) (*Result, error) {
	if err := st.drive(target); err != nil {
		return nil, err
	}
	if err := st.m.CheckConservation(); err != nil {
		return nil, err
	}
	return st.summarise(snapshot{}), nil
}

// drive runs the greedy list-scheduling loop: the least-loaded processor
// claims a schedulable component (preferring its previous one for cache
// affinity) and executes it atomically on its private cache. It may be
// called repeatedly with increasing targets; scheduling state carries
// over, so warm-then-measure is one continuous run.
func (st *state) drive(target int64) error {
	st.target = target
	for st.m.SourceFirings() < target {
		// Least-loaded processor claims next.
		proc := 0
		for i := 1; i < len(st.clock); i++ {
			if st.clock[i] < st.clock[proc] {
				proc = i
			}
		}
		comp := -1
		if st.lastComp[proc] >= 0 && st.schedulable(st.lastComp[proc]) {
			comp = st.lastComp[proc]
		} else {
			for c := 0; c < st.p.K; c++ {
				if st.schedulable(c) {
					comp = c
					break
				}
			}
		}
		if comp < 0 {
			return fmt.Errorf("%w: at %d source firings", ErrDeadlock, st.m.SourceFirings())
		}
		cache := st.caches[proc]
		st.m.SetCache(cache)
		before := cache.Stats().Misses
		if err := st.execute(comp); err != nil {
			return err
		}
		st.clock[proc] += cache.Stats().Misses - before
		st.lastComp[proc] = comp
		st.execs[proc]++
	}
	return nil
}

// snapshot captures the counters a measured window is diffed against.
type snapshot struct {
	misses      []int64 // per-proc miss counts (nil: from zero)
	execs       []int64
	sourceFired int64
	inputItems  int64
}

// take snapshots the current counters.
func (st *state) take() snapshot {
	s := snapshot{
		misses:      make([]int64, len(st.caches)),
		execs:       append([]int64(nil), st.execs...),
		sourceFired: st.m.SourceFirings(),
		inputItems:  st.m.InputItems(),
	}
	for i, c := range st.caches {
		s.misses[i] = c.Stats().Misses
	}
	return s
}

// summarise builds a Result for everything since the snapshot (a zero
// snapshot means the whole run). Per-processor Stats are cumulative (cache
// stats are not windowed); the miss-derived aggregates are diffed.
func (st *state) summarise(since snapshot) *Result {
	res := &Result{
		Procs:       st.cfg.Procs,
		PerProc:     make([]cachesim.Stats, st.cfg.Procs),
		Executions:  make([]int64, st.cfg.Procs),
		SourceFired: st.m.SourceFirings() - since.sourceFired,
		InputItems:  st.m.InputItems() - since.inputItems,
	}
	for i, c := range st.caches {
		res.PerProc[i] = c.Stats()
		m := c.Stats().Misses
		if since.misses != nil {
			m -= since.misses[i]
		}
		res.Executions[i] = st.execs[i]
		if since.execs != nil {
			res.Executions[i] -= since.execs[i]
		}
		res.TotalMisses += m
		res.BusyBlocks += m
		if m > res.MakespanBlocks {
			res.MakespanBlocks = m
		}
	}
	return res
}

// RunInto is the one way to make a traced run. It executes g under cfg
// for warm source firings, calls mark, and executes measured more, handing
// every block access — tagged with its processor, in global emission
// order — to sink(proc, base, n), a run of blocks at a time. It returns
// the measured window's Result and the number of accesses handed over
// (warm-up and window). The interleaving is decided by the executor's
// private-cache clocks alone, so it is independent of whatever hierarchy
// the sink evaluates — which is what lets one run answer a whole (L1, L2)
// grid exactly.
func RunInto(g *sdf.Graph, p *partition.Partition, cfg Config, sink func(proc int, base, n int64), mark func(), warm, measured int64) (*Result, int64, error) {
	if measured <= 0 {
		return nil, 0, fmt.Errorf("parallel: measured window must be positive, got %d", measured)
	}
	st, err := newState(g, p, cfg)
	if err != nil {
		return nil, 0, err
	}
	reg := obs.Or(cfg.Env.Metrics)
	sp := reg.StartSpan(fmt.Sprintf("run_traced[procs=%d]", cfg.Procs))
	defer sp.End()
	last, runs := -1, int64(0) // processor switches in the emission order
	for i := range st.caches {
		proc := i
		st.caches[i].SetObserver(func(base, n int64) {
			if proc != last {
				last, runs = proc, runs+1
			}
			sink(proc, base, n)
		})
	}
	stage := sp.Start("warm")
	if warm > 0 {
		if err := st.drive(warm); err != nil {
			return nil, 0, err
		}
	}
	stage.End()
	mark()
	since := st.take()
	// Target relative to where warmup actually stopped: batch executions
	// overshoot their source-firing targets, and the overshoot must not
	// eat into the measured window.
	stage = sp.Start("measure")
	fired0 := st.m.SourceFirings()
	if measured > math.MaxInt64-fired0 {
		return nil, 0, fmt.Errorf("parallel: measured window %d after %d warm-up firings overflows int64", measured, fired0)
	}
	if err := st.drive(fired0 + measured); err != nil {
		return nil, 0, err
	}
	stage.End()
	if err := st.m.CheckConservation(); err != nil {
		return nil, 0, err
	}
	res := st.summarise(since)
	var accesses int64
	for _, c := range st.caches {
		accesses += c.Stats().Accesses
	}
	if reg != nil {
		for p, n := range res.Executions {
			reg.Counter(fmt.Sprintf("parallel.proc.%d.executions", p)).Add(n)
		}
		reg.Counter("parallel.window.misses").Add(res.TotalMisses)
		reg.Counter("parallel.trace.runs").Add(runs)
		reg.Counter("trace.accesses").Add(accesses)
	}
	return res, accesses, nil
}

// RunTraced is RunInto recording into a trace.ProcLog, with the window
// mark at the log's MarkWindow: the trace the pointwise shared oracles
// (hierarchy.SimulateSharedLog) and ProfileShared replay. The returned
// Result summarises the measured window.
func RunTraced(g *sdf.Graph, p *partition.Partition, cfg Config, warm, measured int64) (*Result, *trace.ProcLog, error) {
	plog, err := trace.NewProcLog(cfg.Procs)
	if err != nil {
		return nil, nil, err
	}
	plog.SetMetrics(obs.Or(cfg.Env.Metrics))
	res, _, err := RunInto(g, p, cfg, plog.RecordRun, plog.MarkWindow, warm, measured)
	if err != nil {
		return nil, nil, err
	}
	return res, plog, nil
}
