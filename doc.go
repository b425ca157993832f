// Package streamsched is a cache-conscious scheduler for streaming
// (synchronous dataflow) applications, reproducing "Cache-Conscious
// Scheduling of Streaming Applications" (Agrawal, Fineman, Krage,
// Leiserson, Toledo; SPAA 2012).
//
// The library models a streaming program as a dag of modules connected by
// FIFO channels with fixed production/consumption rates, and schedules it
// on a single processor (or simulated multiprocessor) to minimize cache
// misses in the external-memory (I/O) model: a cache of M words in blocks
// of B words in front of slow memory.
//
// The paper's central reduction — cache-efficient scheduling is equivalent
// to finding a low-bandwidth well-ordered partition of the graph into
// cache-sized components — drives the API:
//
//	g, _ := streamsched.NewGraph("pipeline")... // or workloads.FMRadio(...)
//	env := streamsched.Env{M: 4096, B: 64}
//	p, _ := streamsched.Partition(g, env.M)     // partition the graph
//	s := streamsched.AutoScheduler(g)           // partitioned scheduler
//	res, _ := streamsched.Simulate(g, s, env, streamsched.CacheConfig{
//		Capacity: 2 * env.M, Block: env.B,
//	}, 10_000, 100_000)
//	fmt.Println(res.MissesPerItem)
//
// The paper's experiments sweep the cache size M; SimulateCurve replaces
// one simulation per swept point with a single recorded run: the
// internal/trace engine captures the block-access trace and
// reuse-distance profiles it (Mattson's one-pass stack algorithm), giving
// the exact LRU miss count for every capacity at once:
//
//	cr, _ := streamsched.SimulateCurve(g, s, env, env.B, 10_000, 100_000)
//	fmt.Println(cr.MissesPerItem(4096, env.B), cr.MissesPerItem(65536, env.B))
//
// The same trace also answers realistic cache organisations:
// SimulateCurveOrgs additionally profiles each requested OrgSpec — exact
// set-associative LRU misses at its listed way counts (per-set Mattson
// stacks) and exact FIFO misses at the replayed way counts (multiplexed
// per-set replicas) — so robustness sweeps over (capacity, ways, policy)
// still cost one execution per scheduler. CacheSets maps a geometry to
// the set count an OrgSpec needs. Sweep runs any of these once per
// scheduler in parallel and returns the results in scheduler order.
//
// SimulateHier extends the engine to two-level cache hierarchies
// (internal/hierarchy): one recorded execution evaluates every (L1, L2)
// pairing of a HierSpec grid — L1 curves via the organisation profiler,
// exact L2 curves by profiling each L1 design point's filtered miss
// stream — modelling the non-inclusive hierarchy in which the L2 only
// sees the L1's misses, with an AMAT-style composed cost (HierCostModel).
// Every grid point matches the exact two-level simulator (hierarchy.Sim,
// which additionally supports exclusive victim-cache mode), as
// TestPropHierCurvesMatchSimulatorOnRandomPipelines and
// TestPropHierCurvesMatchSimulatorOnRandomDags in internal/schedule check.
//
// SimulateShared puts the parallel extension in front of a shared L2:
// cfg.Procs simulated processors with private L1s whose miss streams
// contend for one shared L2 in exactly the order the executor emitted
// them (trace.ProcLog records per-processor streams plus the global
// interleaving). One traced run answers a whole SharedHierSpec grid;
// SimulateSharedPoint is the pointwise oracle (per-processor traffic,
// per-processor cost, makespan under the AMAT ladder). A spec whose
// Procs is 0 takes cfg.Procs, so one spec compares runs differing in
// processor count, claiming rule (ParallelHomogeneous /
// ParallelPipeline), and partition.
// TestMeasureSharedMatchesRunShared in internal/parallel holds every
// (schedule, P, L1, L2) point of a grid against that oracle.
//
// The pipeline is instrumented through internal/obs, a dependency-free
// metrics layer (named counters, gauges, histograms, and hierarchical
// stage spans) that is a nil-receiver no-op until a registry is installed:
// cmd/streamsched's measuring verbs and cmd/experiments expose it via
// -metrics (JSON snapshot), -cpuprofile/-memprofile/-trace, and -v
// (span-tree summary). TestMetricCountersMatchSimulator in
// internal/schedule checks the published counter totals against the exact
// simulator's access counts.
//
// Subpackage workloads provides parameterised topologies of classic
// streaming applications; cmd/experiments regenerates every experiment
// listed in cmd/experiments/README.md; cmd/streamsched is a CLI over JSON
// graph files.
package streamsched
