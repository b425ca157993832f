package streamsched

import (
	"io"

	"streamsched/internal/cachesim"
	"streamsched/internal/hierarchy"
	"streamsched/internal/lowerbound"
	"streamsched/internal/parallel"
	"streamsched/internal/partition"
	"streamsched/internal/ratio"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// Core model types, re-exported for downstream users.
type (
	// Graph is an immutable, validated synchronous dataflow graph.
	Graph = sdf.Graph
	// GraphBuilder assembles a Graph; see NewGraph.
	GraphBuilder = sdf.Builder
	// NodeID identifies a module.
	NodeID = sdf.NodeID
	// EdgeID identifies a channel.
	EdgeID = sdf.EdgeID
	// Rat is an exact rational (gains and bandwidths are rationals).
	Rat = ratio.Rat
	// Partition assigns modules to cache-sized components.
	Partition = partition.Partition
	// CacheConfig describes the simulated cache (capacity and block size in
	// words; optional associativity and policy).
	CacheConfig = cachesim.Config
	// CacheStats counts block transfers.
	CacheStats = cachesim.Stats
	// Env carries the cache parameters (M, B) schedulers plan against.
	Env = schedule.Env
	// Scheduler plans the execution of a graph.
	Scheduler = schedule.Scheduler
	// Run is the measured-window header (scheduler, graph, window counts,
	// buffer words, item latency) that Result, CurveResult, HierResult and
	// HierPointResult embed.
	Run = schedule.Run
	// Result summarises a measured simulation.
	Result = schedule.Result
	// Bound is a computed lower-bound quantity.
	Bound = lowerbound.Bound
	// MissCurve is a reuse-distance profile: exact fully-associative LRU
	// misses for every cache capacity at once, from one recorded run.
	MissCurve = trace.MissCurve
	// CurveResult is a measured run profiled into a MissCurve.
	CurveResult = schedule.CurveResult
	// OrgSpec selects a cache organisation family (set count, the LRU way
	// counts it answers, FIFO way counts) to profile a recorded trace
	// under; see SimulateCurveOrgs.
	OrgSpec = trace.OrgSpec
	// OrgCurves is one organisation's profile: exact set-associative LRU
	// misses at its listed way counts plus exact FIFO misses at the
	// replayed way counts, from the same trace.
	OrgCurves = trace.OrgCurves
	// AssocCurve is a per-set reuse-distance profile: exact set-associative
	// LRU misses at the listed way counts, for a fixed set count.
	AssocCurve = trace.AssocCurve
	// FIFOCurve is a multiplexed FIFO replay: exact FIFO misses at each
	// replayed way count, for a fixed set count.
	FIFOCurve = trace.FIFOCurve
	// ParallelConfig describes a simulated multiprocessor run.
	ParallelConfig = parallel.Config
	// ParallelResult summarises a simulated multiprocessor run.
	ParallelResult = parallel.Result
	// HierLevel describes one cache level of a multi-level hierarchy
	// (capacity, block, ways, policy).
	HierLevel = hierarchy.Level
	// HierConfig describes a two-level hierarchy for the exact simulator:
	// an L1 and an L2 level plus the inclusion mode (non-inclusive or
	// exclusive); see SimulateHierPoint.
	HierConfig = hierarchy.Config
	// HierMode selects a hierarchy's inclusion policy.
	HierMode = hierarchy.Mode
	// HierPointResult is one pointwise two-level measurement; see
	// SimulateHierPoint.
	HierPointResult = schedule.HierPointResult
	// HierSpec is an (L1, L2) evaluation grid profiled from one recorded
	// trace; see SimulateHier.
	HierSpec = hierarchy.HierSpec
	// HierCurves is the profile of one trace under a HierSpec: exact
	// per-level miss counts at every (L1, L2) grid point.
	HierCurves = hierarchy.HierCurves
	// HierCostModel weighs per-level traffic into an AMAT-style average
	// cost per access.
	HierCostModel = hierarchy.CostModel
	// HierResult is a measured run profiled into an (L1, L2) miss grid.
	HierResult = schedule.HierResult
	// ParallelRule selects a parallel run's claiming rule (auto,
	// homogeneous batching, or the pipeline half-full rule).
	ParallelRule = parallel.Rule
	// SharedHierConfig describes a P-processor shared-L2 hierarchy:
	// private per-processor L1s, one shared L2; see SimulateSharedPoint.
	SharedHierConfig = hierarchy.SharedConfig
	// SharedHierSpec is an (L1, L2) grid evaluated against one recorded
	// multiprocessor trace; see SimulateShared.
	SharedHierSpec = hierarchy.SharedSpec
	// SharedHierCurves is the profile of one interleaved trace under a
	// SharedHierSpec: exact per-processor L1 and shared-L2 miss counts at
	// every grid point.
	SharedHierCurves = hierarchy.SharedCurves
	// SharedRunResult is one pointwise shared-hierarchy measurement:
	// per-processor per-level stats, makespan, and AMAT.
	SharedRunResult = parallel.SharedResult
	// SharedMeasureResult is a recorded parallel run profiled into a
	// shared (L1, L2) miss grid.
	SharedMeasureResult = parallel.SharedMeasureResult
)

// Claiming rules for ParallelConfig.Rule.
const (
	// ParallelAuto picks the claiming rule by graph shape (homogeneous
	// wins for uniform pipelines, matching SimulateParallel).
	ParallelAuto = parallel.AutoRule
	// ParallelHomogeneous is the empty-full batching rule.
	ParallelHomogeneous = parallel.HomogeneousRule
	// ParallelPipeline is the half-full pipeline rule.
	ParallelPipeline = parallel.PipelineRule
)

// Inclusion modes for HierConfig.
const (
	// HierNonInclusive lets each level cache independently; an L1 miss
	// fills both levels (the default, and the mode SimulateHier's one-pass
	// curves compose).
	HierNonInclusive = hierarchy.NonInclusive
	// HierExclusive makes the L2 a victim cache: a block lives in at most
	// one level. Requires equal block sizes.
	HierExclusive = hierarchy.Exclusive
)

// NewGraph returns a builder for a graph with the given name. Add modules
// with AddNode, channels with Connect or Chain, and validate with Build.
func NewGraph(name string) *GraphBuilder { return sdf.NewBuilder(name) }

// ReadGraphJSON reads r to EOF and parses and validates one graph in the
// JSON interchange format used by the CLI tools and the daemon; anything
// but whitespace after the graph is an error.
func ReadGraphJSON(r io.Reader) (*Graph, error) { return sdf.ReadJSON(r) }

// PartitionGraph computes a low-bandwidth well-ordered partition with every
// component's state at most bound words: the minimum-bandwidth segmentation
// for pipelines (polynomial DP), the best available heuristic for dags.
func PartitionGraph(g *Graph, bound int64) (*Partition, error) {
	return partition.Auto(g, bound)
}

// PartitionTheorem5 computes the paper's constructive pipeline partition
// (greedy 2M segments cut at gain-minimizing edges).
func PartitionTheorem5(g *Graph, m int64) (*Partition, error) {
	return partition.PipelineTheorem5(g, m)
}

// PartitionExact computes the exact minimum-bandwidth well-ordered
// partition by dynamic programming over order ideals. Exponential; only
// for graphs of at most partition.MaxExactNodes nodes.
func PartitionExact(g *Graph, bound int64) (*Partition, error) {
	return partition.Exact(g, bound)
}

// AutoScheduler returns the paper's partitioned scheduler matching the
// graph's shape: the half-full-rule pipeline scheduler for pipelines, the
// T=M batching scheduler for homogeneous dags, and the general batch
// scheduler otherwise. The partition is computed at Prepare time.
func AutoScheduler(g *Graph) Scheduler { return schedule.Partitioned(g, nil) }

// PartitionedScheduler returns the shape-appropriate partitioned scheduler
// pinned to a specific partition.
func PartitionedScheduler(g *Graph, p *Partition) Scheduler { return schedule.Partitioned(g, p) }

// Baselines returns the comparison schedulers from the paper's related
// work: the flat single-appearance schedule, Sermulins-style execution
// scaling, the minimal-buffer demand-driven schedule, and the Kohli-style
// greedy heuristic.
func Baselines() []Scheduler { return schedule.Baselines() }

// ScaledScheduler returns the Sermulins-style baseline with scaling factor s.
func ScaledScheduler(s int64) Scheduler { return schedule.Scaled{S: s} }

// Simulate plans g with s, warms the cache with warm source firings, then
// measures the next measured source firings and reports misses per item.
func Simulate(g *Graph, s Scheduler, env Env, cache CacheConfig, warm, measured int64) (*Result, error) {
	return schedule.Measure(g, s, env, cache, warm, measured)
}

// SimulateCurve plans g with s, warms with warm source firings, records
// the block-access trace of the next measured firings, and reuse-distance
// profiles it (Mattson's one-pass algorithm). The result answers "misses
// at capacity M" exactly, for every M simultaneously, replacing one full
// Simulate call per swept cache size with a single recorded run:
//
//	cr, _ := streamsched.SimulateCurve(g, s, env, env.B, 1000, 10000)
//	for _, m := range []int64{1 << 10, 1 << 12, 1 << 14} {
//		fmt.Println(m, cr.MissesPerItem(m, env.B))
//	}
//
// The schedule is planned once against env and held fixed across the
// curve; SimulateCurve agrees exactly with Simulate at every capacity.
func SimulateCurve(g *Graph, s Scheduler, env Env, block, warm, measured int64) (*CurveResult, error) {
	return schedule.MeasureCurve(g, s, env, block, warm, measured)
}

// SimulateCurveOrgs is SimulateCurve with additional cache organisations:
// the same recorded trace is also profiled under each requested OrgSpec —
// per-set Mattson stacks give exact set-associative LRU misses at the
// spec's LRUWays, and multiplexed per-set replicas give exact FIFO misses
// at its FIFOWays. One execution of the schedule answers every (capacity,
// ways, policy) point (see ExampleSimulateCurveOrgs). A spec of more than
// one set must list its LRUWays; only a fully-associative one may leave
// them out and answer every capacity. Each point exactly matches Simulate
// with the corresponding CacheConfig.
func SimulateCurveOrgs(g *Graph, s Scheduler, env Env, block, warm, measured int64, orgs []OrgSpec) (*CurveResult, error) {
	return schedule.MeasureCurveOrgs(g, s, env, block, warm, measured, orgs)
}

// SimulateHier extends the one-pass engine to a two-level cache
// hierarchy: the same single recorded execution is evaluated at every
// (L1, L2) grid point of spec — exact L1 misses via the organisation
// profiler, exact L2 misses by profiling each L1 design point's filtered
// miss stream — modelling the non-inclusive hierarchy in which the L2
// only ever sees the L1's misses:
//
//	spec := streamsched.HierSpec{
//		Block: env.B,
//		L1s: []streamsched.HierLevel{{Capacity: 512, Block: env.B, Ways: 4}},
//		L2s: []streamsched.HierLevel{{Capacity: 8192, Block: 4 * env.B}},
//	}
//	hr, _ := streamsched.SimulateHier(g, s, env, spec, 1000, 10000)
//	l1, l2 := hr.Curves.Point(0, 0) // L1 misses (L2 traffic), memory misses
//	amat := hr.Curves.AMAT(0, 0, streamsched.HierCostModel{L1Hit: 1, L2Hit: 10, Mem: 100})
//
// Each grid point exactly matches a pointwise run of the two-level
// simulator (TestPropHierCurvesMatchSimulatorOnRandomPipelines in
// internal/schedule checks every point).
func SimulateHier(g *Graph, s Scheduler, env Env, spec HierSpec, warm, measured int64) (*HierResult, error) {
	return schedule.MeasureHier(g, s, env, spec, warm, measured)
}

// SimulateHierPoint plans and runs g with s once, driving every
// block-level access of the measured window through the exact two-level
// simulator for cfg. This is the pointwise oracle SimulateHier's one-pass
// grid matches at every (L1, L2) point, and the only path to exclusive
// (victim cache) hierarchies, whose L2 contents depend on the L1's
// eviction stream rather than its miss stream alone:
//
//	pt, _ := streamsched.SimulateHierPoint(g, s, env, streamsched.HierConfig{
//		L1:   streamsched.HierLevel{Capacity: 512, Block: env.B, Ways: 4},
//		L2:   streamsched.HierLevel{Capacity: 8192, Block: env.B},
//		Mode: streamsched.HierExclusive,
//	}, 1000, 10000)
//	fmt.Println(pt.L1.Misses, pt.L2.Misses)
func SimulateHierPoint(g *Graph, s Scheduler, env Env, cfg HierConfig, warm, measured int64) (*HierPointResult, error) {
	return schedule.MeasureHierPoint(g, s, env, cfg, warm, measured)
}

// Sweep runs measure once per scheduler, one goroutine per CPU up to one
// per scheduler, and returns the results in scheduler order. Every
// scheduler runs; the error is the first failure in scheduler order,
// prefixed with its scheduler's name:
//
//	results, err := streamsched.Sweep(scheds, func(s streamsched.Scheduler) (*streamsched.CurveResult, error) {
//		return streamsched.SimulateCurve(g, s, env, env.B, 1000, 10000)
//	})
func Sweep[T any](scheds []Scheduler, measure func(Scheduler) (T, error)) ([]T, error) {
	return schedule.Sweep(scheds, measure)
}

// CacheSets returns the set count of a (capacity, block, ways) geometry,
// ways 0 meaning fully associative — the Sets value an OrgSpec needs to
// answer that geometry. It errors on the same ill-formed geometries
// CacheConfig validation rejects.
func CacheSets(capacity, block, ways int64) (int64, error) {
	return trace.SetsFor(capacity, block, ways)
}

// LowerBound computes the paper's lower bound on misses per source firing
// for the graph: Theorem 3 for pipelines, Theorem 7/10 (exact minBW₃)
// for small dags, and a heuristic estimate (Bound.Exact=false) otherwise.
func LowerBound(g *Graph, m, b int64) (Bound, error) {
	if g.IsPipeline() {
		return lowerbound.Pipeline(g, m, b)
	}
	if g.NumNodes() <= partition.MaxExactNodes {
		return lowerbound.DagExact(g, m, b)
	}
	return lowerbound.DagHeuristic(g, m, b)
}

// SimulateParallel runs the paper's parallel extension: cfg.Procs simulated
// processors with private caches claim schedulable components dynamically.
// Homogeneous dags and pipelines are supported; the claiming rule follows
// the graph's shape, whatever cfg.Rule says.
func SimulateParallel(g *Graph, p *Partition, cfg ParallelConfig, target int64) (*ParallelResult, error) {
	cfg.Rule = parallel.AutoRule
	return parallel.Run(g, p, cfg, target)
}

// SimulateShared is the shared-L2 analogue of SimulateHier for the
// parallel extension: one traced multiprocessor run of g (cfg.Procs
// processors, private design caches, the claiming rule of cfg.Rule) is
// profiled into exact shared-hierarchy miss counts for every (L1, L2)
// grid point of spec at once. Every processor gets a private replica of
// each L1 design point; the interleaved L1 miss streams — in the order
// the executor emitted them — drive the shared-L2 profilers, so the grid
// captures the contention the schedule's interleaving actually produces:
//
//	spec := streamsched.SharedHierSpec{
//		Block: env.B, // spec.Procs defaults to cfg.Procs
//		L1s:   []streamsched.HierLevel{{Capacity: 256, Block: env.B}},
//		L2s:   []streamsched.HierLevel{{Capacity: 4096, Block: env.B}},
//	}
//	mr, _ := streamsched.SimulateShared(g, nil, cfg, spec, 1000, 10000)
//	l1, l2 := mr.Curves.Point(0, 0) // aggregate L1 misses, shared-L2 misses
//
// Each grid point exactly matches a pointwise SimulateSharedPoint run
// with the corresponding SharedHierConfig (TestMeasureSharedMatchesRunShared
// in internal/parallel checks every point).
func SimulateShared(g *Graph, p *Partition, cfg ParallelConfig, spec SharedHierSpec, warm, measured int64) (*SharedMeasureResult, error) {
	return parallel.MeasureShared(cfg.Rule.String(), g, p, cfg, spec, warm, measured)
}

// SimulateSharedPoint runs g on cfg.Procs simulated processors and drives
// the recorded interleaved stream through the exact shared-L2 simulator
// for hcfg: P private L1s in front of one contended L2. The result
// carries per-processor per-level traffic, each processor's accumulated
// memory time under cm, the makespan (the slowest processor), and the
// aggregate AMAT — the pointwise oracle SimulateShared's grid matches.
func SimulateSharedPoint(g *Graph, p *Partition, cfg ParallelConfig, hcfg SharedHierConfig, cm HierCostModel, warm, measured int64) (*SharedRunResult, error) {
	return parallel.RunShared(g, p, cfg, hcfg, cm, warm, measured)
}

// Bandwidth returns the partition's bandwidth (items crossing component
// boundaries per source firing) as an exact rational.
func Bandwidth(g *Graph, p *Partition) (Rat, error) { return p.Bandwidth(g) }

// BufferUse reports one channel's allocated capacity against the occupancy
// a plan actually reached.
type BufferUse = schedule.BufferUse

// MeasureBufferUse probes a scheduler's buffer plan: it runs `probe`
// source firings and reports per-channel high-water occupancy, mapping
// where a plan's memory goes (see the §3 open problem on cross-edge
// buffer sizes and experiment E17).
func MeasureBufferUse(g *Graph, s Scheduler, env Env, probe int64) ([]BufferUse, error) {
	return schedule.BufferUtilization(g, s, env, probe)
}

// BatchScheduler returns the general partitioned batch scheduler with an
// explicit batch-size target (0 means the default T >= M). Smaller T
// trades cross-edge buffer memory for extra component reloads.
func BatchScheduler(minT int64) Scheduler { return schedule.PartitionedBatch{MinT: minT} }

// CompiledSchedule is a static looped schedule (prologue + repeating
// period) extracted from a dynamic scheduler; see CompileSchedule.
type CompiledSchedule = schedule.Compiled

// CompileSchedule records a scheduler's firing decisions until its
// steady-state cycle recurs and returns a static, exportable schedule
// that replays identically. warm source firings are executed before cycle
// detection so the period captures the limit cycle; maxSource bounds the
// recording.
func CompileSchedule(g *Graph, s Scheduler, env Env, warm, maxSource int64) (*CompiledSchedule, error) {
	return schedule.Compile(g, s, env, warm, maxSource)
}
