package hierarchy

import (
	"fmt"

	"streamsched/internal/cachesim"
	"streamsched/internal/obs"
	"streamsched/internal/trace"
)

// Sharded hierarchy profiling. The unit of parallel work is one
// (L1 design point, L2 family) pair: each family's profiler group is
// owned by exactly one worker, assigned round-robin, and every worker
// owning at least one family of an L1 point keeps its own deterministic
// replica of that point's filter bank. Replicas all see the identical
// full access stream (via the FanOut pipeline), so they produce identical
// miss streams — each worker feeds its owned groups the same filtered
// stream the sequential profiler would have, in the same order, and the
// merged curves are byte-identical. The L1 organisation curves are one
// more unit of the same pool: the whole trace.OrgProfilers rides the
// worker the round-robin hands it to. The replica redundancy costs one
// Bank lookup per (worker, L1 point) per access; the expensive state —
// the per-set L2 Mattson stacks and FIFO rows — is never duplicated.

// filterReplica is one worker's replica of an L1 filter bank plus the L2
// family groups the worker owns behind it. The replica designated at
// build time supplies the point's miss count (all replicas agree — the
// bank is a deterministic function of the stream).
type filterReplica struct {
	bank   *cachesim.Bank
	misses int64
	groups []*l2Group
}

func (r *filterReplica) touch(blk int64) {
	if r.bank.Access(blk) {
		return
	}
	r.bank.Insert(blk)
	r.misses++
	for _, g := range r.groups {
		b2 := coarsen(blk, g.ratio)
		if g.assoc != nil {
			g.assoc.Touch(b2)
		}
		if g.fifo != nil {
			g.fifo.Touch(b2)
		}
	}
}

func (r *filterReplica) resetCounts() {
	r.misses = 0
	for _, g := range r.groups {
		if g.assoc != nil {
			g.assoc.ResetCounts()
		}
		if g.fifo != nil {
			g.fifo.ResetCounts()
		}
	}
}

// hierShardWorker is one worker's share of a sharded ProfileHier pass:
// its filter replicas, plus the organisation profilers on the one worker
// that owns that unit. It implements trace.WindowedConsumer.
type hierShardWorker struct {
	org  *trace.OrgProfilers // nil on every worker but the unit's owner
	reps []*filterReplica
}

func (w *hierShardWorker) ResetCounts() {
	if w.org != nil {
		w.org.ResetCounts()
	}
	for _, r := range w.reps {
		r.resetCounts()
	}
}

func (w *hierShardWorker) Touch(blk int64) {
	if w.org != nil {
		w.org.Touch(blk)
	}
	for _, r := range w.reps {
		r.touch(blk)
	}
}

// assignHierUnits distributes the (L1 point, L2 family) units of one
// grid round-robin across the workers: owner[i][fi] is the worker that
// owns L1 point i's family fi, and designated[i] is the worker whose
// filter replica supplies point i's miss count (the family-0 owner,
// which always exists since validated specs have at least one L2).
func assignHierUnits(nL1, nFams, workers int) (owner [][]int, designated []int) {
	owner = make([][]int, nL1)
	designated = make([]int, nL1)
	u := 0
	for i := range owner {
		owner[i] = make([]int, nFams)
		for fi := range owner[i] {
			owner[i][fi] = u % workers
			u++
		}
		designated[i] = owner[i][0]
	}
	return owner, designated
}

// mergeUnitsTimed finalises one L1 point's (point, L2 family) unit
// profilers into curves, recording each unit's extraction time into h
// (the hier.shard.unit.merge histogram; nil h skips the clocks).
// Finalisation is idempotent, so l2MissRow afterwards reads the already
// extracted curves and the timing wraps exactly the per-unit merge work.
func mergeUnitsTimed(h *obs.Histogram, groups []*l2Group) {
	for _, g := range groups {
		stop := h.Start()
		if g.assoc != nil && g.assocCurve == nil {
			g.assocCurve = g.assoc.Curve()
		}
		if g.fifo != nil && g.fifoCurve == nil {
			g.fifoCurve = g.fifo.Curve()
		}
		stop()
	}
}

// ProfileHierJobs is ProfileHier with the grid's profiling work sharded
// across a worker pool: jobs <= 0 uses one worker per CPU, 1 is exactly
// ProfileHier, larger values pin the worker count — capped at the grid's
// unit count. One replay feeds every worker through the
// FanOut pipeline, decoded by decodeJobs parallel chunk decoders (same
// knob convention); the returned curves are byte-identical to the
// sequential path's.
func ProfileHierJobs(l *trace.Log, spec HierSpec, jobs, decodeJobs int) (*HierCurves, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	orgSpecs, specIdx := hierOrgSpecs(spec.L1s)
	fams, slots := l2Families(spec.Block, spec.L2s)
	// Workers beyond the unit count — the (L1 point, L2 family) pairs plus
	// the organisation curves — would own nothing; the chosen count lands
	// in profile.shard.workers.
	units := len(spec.L1s)*len(fams) + 1
	workers := trace.ProfileWorkers(jobs)
	if workers > units {
		workers = units
	}
	if workers <= 1 && trace.ProfileWorkers(decodeJobs) <= 1 {
		return ProfileHier(l, spec)
	}
	orgProfs, err := trace.NewOrgProfilers(orgSpecs)
	if err != nil {
		return nil, err
	}
	pool := make([]*hierShardWorker, workers)
	for w := range pool {
		pool[w] = &hierShardWorker{}
	}
	// The organisation curves are the unit after the last (point, family)
	// pair in the round-robin.
	pool[(units-1)%workers].org = orgProfs
	repAt := make([][]*filterReplica, workers) // per worker, per L1 point
	for w := range repAt {
		repAt[w] = make([]*filterReplica, len(spec.L1s))
	}
	owner, designated := assignHierUnits(len(spec.L1s), len(fams), workers)
	groups := make([][]*l2Group, len(spec.L1s))
	for i, l1 := range spec.L1s {
		groups[i] = make([]*l2Group, len(fams))
		for fi, fam := range fams {
			w := owner[i][fi]
			rep := repAt[w][i]
			if rep == nil {
				rep = &filterReplica{bank: l1.bank()}
				repAt[w][i] = rep
				pool[w].reps = append(pool[w].reps, rep)
			}
			g := newL2Group(fam)
			rep.groups = append(rep.groups, g)
			groups[i][fi] = g
		}
	}

	reg := l.Metrics()
	stop := reg.Timer("hier.profile").Start()
	consumers := make([]trace.WindowedConsumer, workers)
	for w := range consumers {
		consumers[w] = pool[w]
	}
	if err := l.FanOut(consumers, decodeJobs); err != nil {
		return nil, err
	}
	orgCurves := orgProfs.Curves()

	misses := make([]int64, len(spec.L1s))
	var totalMisses int64
	for i := range misses {
		misses[i] = repAt[designated[i]][i].misses
		totalMisses += misses[i]
	}
	mergeH := reg.Histogram("hier.shard.unit.merge")
	for i := range groups {
		mergeUnitsTimed(mergeH, groups[i])
	}
	out, err := assembleHier(spec, orgCurves, specIdx, misses, groups, slots)
	if err != nil {
		return nil, err
	}
	stop()
	orgProfs.PublishMetrics(reg, orgCurves)
	publishHierGroupMetrics(reg, totalMisses, groups, len(spec.L1s)*len(spec.L2s))
	return out, nil
}

// sharedReplica is one worker's bank of per-processor replicas of a
// private-L1 design point, plus the shared-L2 groups the worker owns
// behind it.
type sharedReplica struct {
	banks  []*cachesim.Bank
	misses []int64
	groups []*l2Group
}

func (r *sharedReplica) touch(proc int, blk int64) {
	b := r.banks[proc]
	if b.Access(blk) {
		return
	}
	b.Insert(blk)
	r.misses[proc]++
	for _, g := range r.groups {
		b2 := coarsen(blk, g.ratio)
		if g.assoc != nil {
			g.assoc.Touch(b2)
		}
		if g.fifo != nil {
			g.fifo.Touch(b2)
		}
	}
}

func (r *sharedReplica) resetCounts() {
	for p := range r.misses {
		r.misses[p] = 0
	}
	for _, g := range r.groups {
		if g.assoc != nil {
			g.assoc.ResetCounts()
		}
		if g.fifo != nil {
			g.fifo.ResetCounts()
		}
	}
}

// sharedShardWorker is one worker's share of a sharded ProfileShared
// pass. Worker 0 additionally tallies the (per-processor) windowed access
// counts the result reports. It implements trace.ProcWindowedConsumer.
type sharedShardWorker struct {
	count        bool
	accesses     int64
	procAccesses []int64
	reps         []*sharedReplica
}

func (w *sharedShardWorker) ResetCounts() {
	if w.count {
		w.accesses = 0
		for p := range w.procAccesses {
			w.procAccesses[p] = 0
		}
	}
	for _, r := range w.reps {
		r.resetCounts()
	}
}

func (w *sharedShardWorker) TouchProc(proc int, blk int64) {
	if w.count {
		w.accesses++
		w.procAccesses[proc]++
	}
	for _, r := range w.reps {
		r.touch(proc, blk)
	}
}

// ProfileSharedJobs is ProfileShared with the grid's profiling work
// sharded across a worker pool, with the same jobs and decodeJobs
// conventions and byte-identical results as ProfileHierJobs. The worker
// cap is the shared grid's unit count, (L1 points) × (L2 families).
func ProfileSharedJobs(pl *trace.ProcLog, spec SharedSpec, jobs, decodeJobs int) (*SharedCurves, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if pl.Procs() != spec.Procs {
		return nil, fmt.Errorf("hierarchy: trace has %d processors, spec wants %d", pl.Procs(), spec.Procs)
	}

	fams, slots := l2Families(spec.Block, spec.L2s)
	workers := trace.ProfileWorkers(jobs)
	if u := int64(len(spec.L1s)) * int64(len(fams)); int64(workers) > u {
		workers = int(u)
	}
	if workers <= 1 && trace.ProfileWorkers(decodeJobs) <= 1 {
		return ProfileShared(pl, spec)
	}
	pool := make([]*sharedShardWorker, workers)
	for w := range pool {
		pool[w] = &sharedShardWorker{}
	}
	pool[0].count = true
	pool[0].procAccesses = make([]int64, spec.Procs)
	repAt := make([][]*sharedReplica, workers)
	for w := range repAt {
		repAt[w] = make([]*sharedReplica, len(spec.L1s))
	}
	owner, designated := assignHierUnits(len(spec.L1s), len(fams), workers)
	groups := make([][]*l2Group, len(spec.L1s))
	for i, l1 := range spec.L1s {
		groups[i] = make([]*l2Group, len(fams))
		for fi, fam := range fams {
			w := owner[i][fi]
			rep := repAt[w][i]
			if rep == nil {
				rep = &sharedReplica{
					banks:  make([]*cachesim.Bank, spec.Procs),
					misses: make([]int64, spec.Procs),
				}
				for p := range rep.banks {
					rep.banks[p] = l1.bank()
				}
				repAt[w][i] = rep
				pool[w].reps = append(pool[w].reps, rep)
			}
			g := newL2Group(fam)
			rep.groups = append(rep.groups, g)
			groups[i][fi] = g
		}
	}

	reg := pl.Metrics()
	stop := reg.Timer("hier.shared.profile").Start()
	consumers := make([]trace.ProcWindowedConsumer, workers)
	for w := range consumers {
		consumers[w] = pool[w]
	}
	if err := pl.FanOut(consumers, decodeJobs); err != nil {
		return nil, err
	}

	out := &SharedCurves{
		Spec:         spec,
		Accesses:     pool[0].accesses,
		ProcAccesses: pool[0].procAccesses,
		L1Misses:     make([][]int64, len(spec.L1s)),
		L2Misses:     make([][]int64, len(spec.L1s)),
	}
	var err error
	mergeH := reg.Histogram("hier.shard.unit.merge")
	for i := range spec.L1s {
		mergeUnitsTimed(mergeH, groups[i])
		out.L1Misses[i] = repAt[designated[i]][i].misses
		out.L2Misses[i], err = l2MissRow(groups[i], slots)
		if err != nil {
			return nil, err
		}
	}
	stop()
	if reg != nil {
		reg.Counter("trace.profile.accesses").Add(out.Accesses)
		reg.Counter("trace.profile.passes").Add(1)
		var filterMisses int64
		for i := range spec.L1s {
			filterMisses += out.L1Total(i)
		}
		publishHierGroupMetrics(reg, filterMisses, groups, len(spec.L1s)*len(spec.L2s))
	}
	return out, nil
}
