package trace

// Profiler implements Mattson's stack algorithm for reuse-distance
// (LRU stack distance) profiling. Feed it the block-access stream in
// order; it maintains the LRU stack implicitly — a per-block last-access
// slot plus an order-statistics timeline over those slots — and
// histograms the stack depth of every access. An access at depth d hits
// in every fully-associative LRU cache of at least d lines, so the
// histogram determines the exact miss count for all capacities at once.
//
// Each access costs one timeline count, removal and append (a popcount
// walk as long as the reuse is old); memory is proportional to the number
// of distinct blocks, not the trace length. Block ids from the execution
// machine's arena are small and dense, so the block -> slot index is a
// flat slice (with a map fallback for sparse or negative ids). TouchRun
// takes a run of blocks that were last touched together in one step.
type Profiler struct {
	tl      *timeline
	dense   []int32         // block -> live slot, 0 = unseen (dense ids)
	sparse  map[int64]int32 // fallback for huge or negative block ids
	relabel func(int64, int32)

	depthCounts
}

// depthCounts is a Mattson stack's windowed tally, whichever structure keeps
// the stack.
type depthCounts struct {
	hist []int64 // hist[d]: counted accesses at stack depth d (1-based)
	cold int64   // counted first-ever accesses (infinite distance)
}

// count adds n counted accesses at stack depth d.
func (c *depthCounts) count(d, n int64) {
	if int64(len(c.hist)) <= d {
		grown := make([]int64, 2*d+2)
		copy(grown, c.hist)
		c.hist = grown
	}
	c.hist[d] += n
}

// reset zeroes the tally.
func (c *depthCounts) reset() {
	clear(c.hist)
	c.cold = 0
}

// denseLimit caps the flat block index at 16M entries (64 MiB); blocks
// beyond it fall back to the map.
const denseLimit = 1 << 24

// NewProfiler returns a profiler that counts every access it is fed.
// Use ResetCounts after a warmup prefix to profile only a window.
func NewProfiler() *Profiler {
	p := &Profiler{
		tl:    newTimeline(),
		dense: make([]int32, 4096),
	}
	p.relabel = p.store
	return p
}

// Touch processes one block access and returns its stack depth, 0 for a
// first-ever access.
func (p *Profiler) Touch(blk int64) int {
	p.tl.Room(1, p.relabel)
	var d int64
	if slot := p.lookup(blk); slot != 0 {
		// Depth = blocks accessed since this one (they sit above it in the
		// LRU stack) plus one for the block itself.
		d = p.tl.CountAfter(slot) + 1
		p.count(d, 1)
		p.tl.Remove(slot, 1)
	} else {
		p.cold++
	}
	p.store(blk, p.tl.Append(blk, 1))
	return int(d)
}

// TouchRun processes accesses to the n blocks base, base+1, …, in that
// order, exactly as n Touch calls would. Wherever the next k >= 2 blocks
// hold k consecutive slots s..s+k-1 — they were last touched as a run —
// each finds the k-1 others and the CountAfter(s+k-1) younger blocks above
// it when its turn comes, so all k re-reference at depth k +
// CountAfter(s+k-1): one count, one histogram update, one masked clear and
// one masked set. Unseen blocks, broken runs and sparse or negative ids
// take the one-block path.
func (p *Profiler) TouchRun(base, n int64) { p.touchRun(base, n, nil) }

// touchRun is TouchRun noting in period, when non-nil, the depth the
// blocks were found at (0: first-ever), a stretch of blocks sharing one
// depth at a time.
func (p *Profiler) touchRun(base, n int64, period *periodLog) {
	for n > 0 {
		var k int32 // leading blocks in consecutive slots
		if base >= 0 && base < int64(len(p.dense)) && p.dense[base] != 0 {
			rest := p.dense[base:]
			if int64(len(rest)) > n {
				rest = rest[:n]
			}
			for k = 1; int(k) < len(rest) && rest[k] == rest[0]+k; k++ {
			}
		}
		if k < 2 {
			if d := p.Touch(base); period != nil {
				period.noteRun(base, 1, d)
			}
			base, n = base+1, n-1
			continue
		}
		p.tl.Room(k, p.relabel) // renumbering keeps the slots consecutive
		slot := p.dense[base]
		d := p.tl.CountAfter(slot+k-1) + int64(k)
		p.count(d, int64(k))
		if period != nil {
			period.noteRun(base, int64(k), int(d))
		}
		p.tl.Remove(slot, k)
		slot = p.tl.Append(base, k)
		for i := range p.dense[base : base+int64(k)] {
			p.dense[base+int64(i)] = slot + int32(i)
		}
		base, n = base+int64(k), n-int64(k)
	}
}

func (p *Profiler) lookup(blk int64) int32 {
	if blk >= 0 && blk < int64(len(p.dense)) {
		return p.dense[blk]
	}
	if blk >= 0 && blk < denseLimit {
		return 0 // dense range, slice not grown yet: unseen
	}
	return p.sparse[blk]
}

func (p *Profiler) store(blk int64, slot int32) {
	if blk >= 0 && blk < denseLimit {
		for int64(len(p.dense)) <= blk {
			grow := int64(len(p.dense))
			if int64(len(p.dense))+grow > denseLimit {
				grow = denseLimit - int64(len(p.dense))
			}
			p.dense = append(p.dense, make([]int32, grow)...)
		}
		p.dense[blk] = slot
		return
	}
	if p.sparse == nil {
		p.sparse = make(map[int64]int32, 64)
	}
	p.sparse[blk] = slot
}

// ResetCounts zeroes the histogram while keeping the stack state, exactly
// like resetting the cache simulator's statistics after warmup: subsequent
// distances still see the warm stack, but only post-reset accesses count.
func (p *Profiler) ResetCounts() { p.reset() }

// TimelineOps returns the number of structural order-statistics operations
// (append, remove, depth count) the profiler's timeline has performed —
// the metric instrumented profiling passes publish as
// trace.profile.timeline.ops. A run taken in one step costs one of each.
func (p *Profiler) TimelineOps() int64 { return p.tl.ops }

// Curve freezes the current histogram into a MissCurve.
func (p *Profiler) Curve() *MissCurve {
	maxd := len(p.hist) - 1
	for maxd > 0 && p.hist[maxd] == 0 {
		maxd--
	}
	if maxd < 0 {
		maxd = 0 // no reuse observed: the curve is all cold misses
	}
	// suffix[i] = counted accesses at finite depth >= i.
	suffix := make([]int64, maxd+2)
	for d := maxd; d >= 1; d-- {
		suffix[d] = suffix[d+1] + p.hist[d]
	}
	return &MissCurve{
		Accesses: suffix[1] + p.cold,
		Cold:     p.cold,
		suffix:   suffix,
	}
}

// Profile replays a recorded log through a fresh Profiler, honouring the
// log's measured window (accesses before WindowStart warm the stack but
// are not counted), and returns the resulting miss curve. It is the replay
// oracle for the live profilers: TestProfileMatchesOnlineProfiler holds
// a streamed Profiler to it, TestAssocCurveFullMatchesMissCurve the
// organisation profilers' fully-associative curve.
func Profile(l *Log) *MissCurve {
	p := NewProfiler()
	l.ForEachRunWindowed(p.ResetCounts, p.TouchRun)
	return p.Curve()
}
