// Package trace is the one-pass miss-curve engine: it captures block-access
// traces from the execution machine and computes, in a single pass, the
// exact fully-associative LRU miss count for every cache capacity at once.
//
// The paper's central experiments sweep the cache size M and plot misses
// per item for each scheduler. Simulating each (scheduler, M) point
// separately costs one full run per point; Mattson's stack algorithm
// (reuse-distance profiling) replaces the whole sweep with one recorded
// trace and one profiling pass, because an access to a block at
// LRU stack depth d hits in every cache of at least d lines and misses in
// every smaller one. The resulting MissCurve answers "how many misses at
// capacity M?" for all M simultaneously and exactly matches the cachesim
// LRU simulator (see the cross-validation tests).
//
// The pieces:
//
//   - Recorder is the event sink the execution machine emits the block
//     ranges it touches into, a run (first block, count) at a time. The
//     profilers are recorders themselves (OrgProfilers.RecordRun), so a
//     profile is taken while the execution runs, and its state is
//     O(footprint), not O(trace). Log is the in-memory recorder for a
//     second pass: it stores the runs it was handed, merged where one
//     continues the last, and replays them (ForEachRunWindowed) into the
//     same RecordRun methods a live run feeds. The pointwise oracles, the
//     experiments and the benchmark probe use it.
//   - Profiler implements Mattson's algorithm with an implicit
//     order-statistics structure over last-access slots (a 64-ary counted
//     bitmap: a reuse costs a popcount walk as long as it is old), memory
//     proportional to the number of distinct blocks. It takes a run of
//     blocks that were last touched together in one step.
//   - MissCurve is the profile result: misses as a function of capacity.
//   - OrgProfilers drives any number of organisations' profilers from one
//     access stream, so one execution per scheduler answers every
//     (capacity, ways, policy) robustness question; ProfileOrgs feeds it
//     from a recorded log instead. Its Touch also reports which design
//     points the access missed in (Missed per point, or MissMask for up to
//     64 points at once) — the miss streams the hierarchy profilers feed
//     their next level from. It does only work
//     that can change an answer: one structure per distinct set count; a
//     set-associative family answers exactly the way counts the request
//     evaluates (OrgSpec.LRUWays, filled in by GridSpecs/AddPoint, an
//     AssocCurve) from per-set stacks kept that deep — flat move-to-front
//     rows when they are shallow and Kim-Hill-Wood marker lists when they
//     are deep (O(1) for a reuse inside the smallest listed way count);
//     only the fully-associative family may leave its way counts open, and
//     then it is one Profiler; all FIFO points of all specs share one
//     residency mask (an access costs one load plus work proportional to
//     the FIFO replicas it misses in; FIFOCurve).
//   - OrgLanes profiles up to 64 streams — lanes — under one spec list, fed
//     together by a mask of the lanes each access reaches: one block-table
//     lookup and one set index per family per access for all of them. The
//     hierarchy profilers' L2 is one lane per L1 design point.
//   - ProcLog is the multiprocessor trace: a Log whose runs carry the
//     recording processor, so it keeps the global interleaving order a
//     parallel run emitted them in — what the shared-L2 hierarchy oracles
//     replay.
//   - Sweep runs a pool of profiling jobs (schedulers x workloads) on a
//     bounded number of goroutines — the package's only concurrency;
//     every profiling call runs inline on its caller's goroutine.
//
// Three invariants hold on every path through this package, and tests pin
// each:
//
//   - Exactness: every curve equals what the cachesim simulator reports at
//     the corresponding configuration — profiling is a faster evaluation
//     order, never an approximation. A request-bounded curve answers
//     exactly its listed way counts and refuses (panics, or ok=false) any
//     other.
//   - One pass: a profile fed while the execution runs and one fed by a
//     single replay of that execution's log are identical, however many
//     organisations it drives; Replays() counts a log's replays.
//   - Deterministic windows: ForEachRunWindowed resets per-window counters
//     at exactly the recorded MarkWindow position — where a live window
//     calls ResetCounts; first-ever (cold) tracking deliberately survives
//     the reset.
package trace

// Recorder receives every block-level access of a run, in execution
// order, as ascending runs: a firing touches its module's state and its
// channels' buffer windows as address ranges, and the range — not the
// single block — is the unit the execution machine (internal/exec) hands
// over. Implementations must be cheap because they sit on the machine's
// innermost loop.
type Recorder interface {
	// RecordRun notes accesses to the n >= 1 blocks base, base+1, …,
	// base+n-1, in that order.
	RecordRun(base, n int64)
}
