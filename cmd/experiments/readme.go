package main

import (
	"fmt"
	"strings"
)

// registryReadme renders README.md's full contents from the experiment
// registry, so the documented table cannot drift from the code: the
// drift-guard test regenerates this and fails on any difference
// (refresh with `go test ./cmd/experiments -run TestReadmeMatchesRegistry
// -update`).
func registryReadme() string {
	var b strings.Builder
	b.WriteString(`# cmd/experiments

Regenerates every experiment table in one run — the empirical validation
of the paper's theorems (lower/upper bound sandwich, partitioned-vs-
baseline comparisons, parameter sweeps, ablations) plus the repository's
extensions (one-pass curve engines, hierarchies, shared L2). The process
exits non-zero if any selected experiment fails, and rejects unknown
` + "`-run`" + ` ids.

Each experiment prints its scheduling result. That the one-pass engines
behind E12 and E19–E21 are exact is proved by ` + "`go test ./...`" + `,
not here: ` + "`TestPropOrgCurvesMatchSimulatorOnRandomPipelines`" + ` (E12's
grid), ` + "`TestMeasureCurveMatchesMeasure`" + ` (E19),
` + "`TestPropHierCurvesMatchSimulatorOnRandomPipelines`" + ` (E20) and
` + "`TestMeasureSharedMatchesRunShared`" + ` (E21). E4 prints the
sandwich on one pipeline; ` + "`TestPartitionedWithinConstantOfBound`" + `
(` + "`internal/lowerbound`" + `) holds its constant over seeded pipelines
and dags at 2M, 4M and 8M.

` + "`TestPaperClaims`" + ` (` + "`claims_test.go`" + `) holds E1, E2, E5, E6, E8 and E10 to
what the paper says their figures show, over the table each run prints
(built by the same function), at quick size. Each predicate asks for the
figure's shape with a constant factor of slack, and each is caught by a
committed mutant (` + "`mutants/experiments-*`" + `):

- E1 (Fig 1): while the cache holds no more than the total state,
  flat-topo and demand-driven pay within 2x of totalState/B misses per
  item, and below a quarter of it once the cache holds twice the state;
  at every M the partitioned misses per firing are at most 4x the
  bandwidth(P)/B of the partition designed for that M. The statement's
  "the partitioned schedule stays within a constant factor" is read
  against that bound, as Theorem 5 states it: the partitioned column
  itself falls ~15x over the sweep, as bandwidth(P)/B does.
- E2 (Fig 2): flat-topo grows with pipeline length at least half as fast
  as the total state; the partitioned column stays within 2x.
- E5 (Fig 4): the partitioned misses/item, the schedule designed for M on
  a cache of c·M, never rise from one factor c to the next, and from
  c = 2 on they are at most 4x the bandwidth(P)/B of the partition
  designed for M and below flat-topo's on a cache of M.
- E6 (Tab 2): on every workload whose total state exceeds the cache
  (2M), the partitioned misses/item are below both flat-topo's and
  scaled(s=4)'s; at quick size all seven workloads exceed it.
- E8 (Fig 6): partitioned misses/item x B stay within 2x over B = 8-128
  and misses/item fall as B grows.
- E10 (Fig 7): with floor = 2|edges|/B, the scaled misses/item start
  above 4x the floor, fall while above 2x it, never read below half of
  it, end the sweep within 2x of it, and the partitioned reference
  designed for M/4 reads below every scaled row.

Every claim held at quick size when it was added; a claim that fails
there is recorded here as a finding, and its sizes and thresholds stay
as written.

### Warm-up against the first recurrence

Each claim's window starts after its warm-up. Below, each schedule's
first recurrence is read off ` + "`schedule.Compile`" + ` (warm 0): the prologue,
in source firings before the key its search matched (an upper bound on
the transient, within the search's factor of two), and the period.
"Steady from" is the first source firing from which the firings repeat
with that period. A row marked T measures a transient: its warm-up ends
before that firing. Only the firing schedule is compared, not the
simulated cache's contents, and the sizes are the quick ones. Flat-topo
and scaled(s) recur at once in every row (prologue 0, period one step)
and are left out; no claim is re-judged here.

| Claim | warm + window | schedule | prologue + period | steady from | |
| --- | --- | --- | --- | --- | --- |
| E1 | 512 + 2048 | demand-driven, M = 128-4096 | 0 + 1 | 0 | |
| E1 | 512 + 2048 | kohli-greedy, M = 128-4096 | (M/4 - 1) + M/4 | 1 | |
| E1 | 512 + 2048 | partitioned-pipeline, M = 128, 256, 512, 1024 | 8191 + 256, 512, 1024, 2048 | 7683, 7173, 6153, 4113 | T |
| E1 | 512 + 2048 | partitioned-pipeline, M = 2048 | 4095 + 4096 | 33 | period > window |
| E1 | 512 + 2048 | partitioned-pipeline, M = 4096 | 1 + 2 | 1 | |
| E2 | 512 + 2048 | partitioned-pipeline, n = 10, 18, 34, 66 | 2047, 4095, 8191, 16383 + 512 | 1029, 3077, 7173, 15365 | T |
| E5 | 512 + 2048 | partitioned-pipeline, M = 256 | 8191 + 512 | 7173 | T |
| E6 | 512 + 1024 | fmradio, partitioned-homog | 512 + 512 | 512 | |
| E6 | 512 + 1024 | filterbank, partitioned-batch | 0 + 512 | 0 | |
| E6 | 512 + 1024 | beamformer, partitioned-homog | 1536 + 512 | 1536 | T |
| E6 | 512 + 1024 | fft, partitioned-pipeline | 2016 + 1024 | 1280 | T |
| E6 | 512 + 1024 | bitonic, partitioned-homog | 1536 + 512 | 1024 | T |
| E6 | 512 + 1024 | des, partitioned-pipeline | 4095 + 1024 | 3081 | T |
| E6 | 512 + 1024 | mp3, partitioned-pipeline | 127 + 85 | 88 | |
| E8 | 512 + 2048 | partitioned-pipeline, B = 8-128 | 8191 + 1024 | 6153 | T |
| E10 | 1024 + 4096 | partitioned-pipeline for M/4 = 128 | 8191 + 256 | 7683 | T |

The half-full pipeline rule fills one 2M cross-edge buffer after
another, so on the 34-module pipeline it settles only after ~6k-8k
source firings: every claim that reads its partitioned column (E1 at M
<= 1024, E2, E5, E8, E10) measures that fill.

## Usage

` + "```sh" + `
go run ./cmd/experiments                 # every experiment, quick sizes
go run ./cmd/experiments -list           # id + title of every experiment
go run ./cmd/experiments -run E12,E19    # a selection (case-insensitive)
go run ./cmd/experiments -jobs 4         # four experiments in flight at once
go run ./cmd/experiments -full           # full-size graphs and windows
go run ./cmd/experiments -run e20 -metrics m.json -v   # with observability
` + "```" + `

| Flag | Meaning |
| --- | --- |
| ` + "`-run ids`" + ` | comma-separated experiment ids, or ` + "`all`" + ` (default: all) |
| ` + "`-jobs N`" + ` | experiments to run concurrently (<=1: sequential, streaming output; more: bounded pool with buffered output, printed in registry order) |
| ` + "`-full`" + ` | full-size parameters (slower) |
| ` + "`-seed N`" + ` | seed for randomized workloads |
| ` + "`-list`" + ` | list experiments and exit |
| ` + "`-metrics <file>`" + ` | write an internal/obs metrics snapshot (JSON) on exit |
| ` + "`-cpuprofile <file>`" + ` | write a pprof CPU profile |
| ` + "`-memprofile <file>`" + ` | write a pprof heap profile on exit |
| ` + "`-trace <file>`" + ` | write a runtime/trace execution trace |
| ` + "`-v`" + ` | print the span-tree timing summary on exit |

All observability artifacts flush on every exit path, failed experiments
included.

## Experiments

Generated from the registry in this package; the drift-guard test fails
if this table and the registered experiments disagree.

| Id | Title |
| --- | --- |
`)
	for _, e := range registrySorted() {
		fmt.Fprintf(&b, "| %s | %s |\n", e.id, e.title)
	}
	b.WriteString(`
E14 (real-memory wall-clock validation) is deliberately not in the
registry: it measures actual hardware time, so it lives as
` + "`BenchmarkE14RealMemory`" + ` in the root ` + "`bench_test.go`" + `
and runs under ` + "`go test -bench`" + ` with the other per-experiment
benchmarks. It is the one hardware corroboration of the cache model:
` + "`internal/realexec`" + ` runs a 34-module pipeline of 256 KiB modules (~8 MiB of
state) on real memory, once in flat order and once partitioned into
segments of at most 512 KiB. ` + "`go test -run '^$' -bench BenchmarkE14RealMemory -benchtime 3000x -count 3 .`" + `
on a 2-vCPU Intel Xeon virtual machine read 725–791 µs per source firing flat
and 35–39 µs partitioned: the partitioned schedule is about 20× faster.
`)
	return b.String()
}

// registrySorted returns the registry in presentation order without
// mutating the package-level slice order invariants (sortRegistry is
// idempotent, but callers of registryReadme should not have to care).
func registrySorted() []experiment {
	sortRegistry()
	return registry
}
