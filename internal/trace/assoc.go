package trace

import (
	"fmt"
	"math/bits"
	"slices"
)

// Set-associative LRU profiling. A set-associative cache is a bank of
// independent small fully-associative caches: block blk lives in set
// blk mod sets, and within a set the replacement policy orders only that
// set's blocks. Because the set index is a pure function of the block id,
// the trace can be sharded by set up front, and LRU-within-a-set is still
// a stack algorithm — so one Mattson profiler per set yields the exact
// set-associative LRU miss count for every way count (lines per set) at
// once, from a single pass over the trace. This is how E12's robustness
// ablation becomes one-pass: a W-way cache of capacity M words and block
// B has sets = (M/B)/W, and its miss count is the sum over sets of the
// per-set misses at stack depth W.

// setIndex splits a block id into its set and its dense within-set id,
// mirroring cachesim's placement (set = blk mod sets, floored for negative
// ids). A power-of-two set count reduces to a mask and a shift.
type setIndex struct {
	sets  int64
	shift int // log2(sets) when sets is a power of two, else -1
}

func newSetIndex(sets int64) setIndex {
	s := setIndex{sets: sets, shift: -1}
	if sets&(sets-1) == 0 {
		s.shift = bits.TrailingZeros64(uint64(sets))
	}
	return s
}

// set returns blk's set index.
func (s setIndex) set(blk int64) int64 {
	if s.shift >= 0 {
		return blk & (s.sets - 1)
	}
	set := blk % s.sets
	if set < 0 {
		set += s.sets
	}
	return set
}

// id returns blk's within-set id, given its set index.
func (s setIndex) id(blk, set int64) int64 {
	if s.shift >= 0 {
		return blk >> s.shift
	}
	// (blk - set) is an exact multiple of sets, so this floored division is
	// collision-free even for negative block ids.
	return (blk - set) / s.sets
}

// AssocProfiler shards a block-access stream by set index and runs an
// independent Mattson stack profiler per set. It mirrors cachesim's
// placement exactly (set = blk mod sets), so its curves match the
// set-associative LRU simulator access for access. An AssocProfiler with
// one set is the fully-associative profiler.
//
// Per-set stacks are usually tiny (a set sees only 1/sets of the working
// set), where the timeline's per-access constant loses to a plain
// move-to-front array scan, so each set starts as a list-based Mattson
// stack — the scan position IS the stack depth — and upgrades itself to a
// full Profiler only if its stack outgrows assocListLimit. Both forms are
// exact; the hybrid is what keeps multi-organisation profiling cheap per
// access.
type AssocProfiler struct {
	idx setIndex
	per []setStack
}

// assocListLimit is the per-set stack size beyond which a list stack
// upgrades to the timeline-based Profiler: move-to-front costs O(depth),
// so deep stacks go back to the order-statistics structure.
const assocListLimit = 192

// setStack is one set's adaptive Mattson stack.
type setStack struct {
	list *listStack
	mat  *Profiler // non-nil once upgraded
}

// NewAssocProfiler returns a profiler for the given number of sets.
// It panics if sets < 1 (programmer error, like an invalid cache config).
func NewAssocProfiler(sets int64) *AssocProfiler {
	if sets < 1 {
		panic("trace: AssocProfiler needs at least one set")
	}
	per := make([]setStack, sets)
	for i := range per {
		per[i].list = &listStack{}
	}
	return &AssocProfiler{idx: newSetIndex(sets), per: per}
}

// Touch processes one block access: it routes the access to the block's
// set and feeds the set's stack the block's within-set id, so each
// per-set stack sees a dense id space regardless of the stride the set
// selection induces.
func (p *AssocProfiler) Touch(blk int64) {
	set := p.idx.set(blk)
	p.per[set].touch(p.idx.id(blk, set))
}

// touch processes one access and returns the stack depth it was found at,
// 0 for a first-ever access.
func (s *setStack) touch(blk int64) int {
	if s.mat != nil {
		return s.mat.Touch(blk)
	}
	d := s.list.touch(blk)
	if len(s.list.blks) > assocListLimit {
		s.upgrade()
	}
	return d
}

// touchRun feeds the stack the ids base, base+1, …, base+n-1 in order. A
// stack in its timeline stage takes the run in one step where it can
// (Profiler.TouchRun); a list stack takes it id by id.
func (s *setStack) touchRun(base, n int64) {
	for ; n > 0 && s.mat == nil; base, n = base+1, n-1 {
		s.touch(base)
	}
	if n > 0 {
		s.mat.TouchRun(base, n)
	}
}

// upgrade transfers the list stack's state into a timeline-based Profiler:
// the stack contents seed the timeline (least recent first) and the
// counted histogram carries over unchanged.
func (s *setStack) upgrade() {
	m := NewProfiler()
	for i := len(s.list.blks) - 1; i >= 0; i-- {
		m.seedStack(s.list.blks[i])
	}
	m.depthCounts = s.list.depthCounts
	s.mat = m
	s.list = nil
}

// counts returns the set's tally, whichever form the stack is in.
func (s *setStack) counts() *depthCounts {
	if s.mat != nil {
		return &s.mat.depthCounts
	}
	return &s.list.depthCounts
}

// TimelineOps returns the total timeline operation count across the sets
// that upgraded to the order-statistics structure; sets still on
// the list stack contribute nothing (their work is array scans).
func (p *AssocProfiler) TimelineOps() int64 {
	var ops int64
	for i := range p.per {
		if m := p.per[i].mat; m != nil {
			ops += m.TimelineOps()
		}
	}
	return ops
}

// Curve freezes the per-set histograms into an AssocCurve. A W-way cache
// misses an access exactly when its within-set depth exceeds W, so the
// sets' depth histograms add up to one curve.
func (p *AssocProfiler) Curve() *AssocCurve {
	var total []int64
	var cold int64
	for i := range p.per {
		c := p.per[i].counts()
		if len(c.hist) > len(total) {
			total = append(total, make([]int64, len(c.hist)-len(total))...)
		}
		for d, n := range c.hist {
			total[d] += n
		}
		cold += c.cold
	}
	return newAssocCurve(p.idx.sets, curveFromHist(total, cold))
}

// listStack is Mattson's algorithm on an explicit move-to-front array:
// the index at which a block is found is one less than its stack depth.
// O(depth) per access with a tiny constant — the right trade for the
// shallow stacks per-set sharding produces.
type listStack struct {
	blks []int64 // most recent first
	depthCounts
}

// moveToFront is the one stack kernel: a single pass that writes x at the
// head of the row and carries every entry one place down until it meets x's
// old copy, whose 1-based position — x's stack depth — it returns. When x is
// not in the row the whole row has moved down: it returns 0 and the entry
// that fell off the end (x itself for an empty row).
func moveToFront[T int32 | int64](row []T, x T) (depth int, off T) {
	prev := x
	for i, e := range row {
		row[i] = prev
		if e == x {
			return i + 1, x
		}
		prev = e
	}
	return 0, prev
}

func (l *listStack) touch(blk int64) int {
	d, off := moveToFront(l.blks, blk)
	if d == 0 {
		l.cold++
		l.blks = append(l.blks, off) // the stack grows: nothing falls off
		return 0
	}
	l.count(int64(d), 1)
	return d
}

// boundedStacks is the row form of a request-bounded family: when the way
// counts a request evaluates are known, an access deeper than the deepest
// misses at every one of them, so each set keeps only its bound most
// recent blocks. All sets live in one flat sets x bound move-to-front
// array and share one depth histogram. Rows hold the blocks' blockTable
// slots, which identify a block as exactly as its id does.
type boundedStacks struct {
	ways  []int64 // the way counts, ascending and distinct
	bound int     // the deepest of them
	rows  []int32 // sets*bound entries, most recent first; noSlot = empty
	// hist[d], 1 <= d <= bound: counted accesses found at depth d; hist[0]:
	// those not found in their row (cold included). cold stays zero: the
	// FIFO bank's ever-seen bits count first-ever accesses.
	depthCounts
}

func newBoundedStacks(sets int64, ways []int64) *boundedStacks {
	bound := ways[len(ways)-1]
	rows := make([]int32, sets*bound)
	for i := range rows {
		rows[i] = noSlot
	}
	return &boundedStacks{ways: ways, bound: int(bound), rows: rows, depthCounts: depthCounts{hist: make([]int64, bound+1)}}
}

// touch processes one access to the block in slot and returns the depth it
// was found at, 0 when it is deeper than the bound (or cold): the row's
// last entry has then fallen off the stack.
func (b *boundedStacks) touch(set int64, slot int32) int {
	d, _ := moveToFront(b.rows[int(set)*b.bound:][:b.bound], slot)
	b.hist[d]++
	return d
}

// curve answers the family's way counts from the shared histogram: an
// access hits at w exactly when it was found at a depth of at most w.
func (b *boundedStacks) curve(sets, cold int64) *AssocCurve {
	var total int64
	for _, n := range b.hist {
		total += n
	}
	misses := make([]int64, len(b.ways))
	left, d := total, 1
	for i, w := range b.ways {
		for ; d <= int(w); d++ {
			left -= b.hist[d]
		}
		misses[i] = left
	}
	return &AssocCurve{Sets: sets, Accesses: total, Cold: cold, Ways: b.ways, misses: misses}
}

// AssocCurve is the result of per-set reuse-distance profiling: the exact
// set-associative LRU miss count of the recorded (windowed) stream for a
// fixed set count, as a function of the way count — every associativity
// with that set count at once, or exactly the listed ones when the profile
// was request-bounded.
type AssocCurve struct {
	// Sets is the set count the trace was sharded by.
	Sets int64
	// Accesses is the number of counted (in-window) block accesses.
	Accesses int64
	// Cold is the number of counted first-ever accesses.
	Cold int64
	// Ways lists the way counts a request-bounded curve answers, ascending;
	// empty means every way count (the stacks were not truncated).
	Ways   []int64
	curve  *MissCurve // unbounded: the depth histogram summed over the sets
	misses []int64    // request-bounded: misses[i] is the count at Ways[i]
}

func newAssocCurve(sets int64, mc *MissCurve) *AssocCurve {
	return &AssocCurve{Sets: sets, Accesses: mc.Accesses, Cold: mc.Cold, curve: mc}
}

// Misses returns the exact miss count of a Sets-set LRU cache with the
// given number of ways (lines per set). With Sets == 1 this is the
// fully-associative curve and ways is the total line count. It panics on
// a way count a request-bounded curve does not list: the bounded state
// holds no answer there, and a wrong number must never pass for one.
func (c *AssocCurve) Misses(ways int64) int64 {
	if c.curve != nil {
		return c.curve.Misses(ways)
	}
	i, ok := slices.BinarySearch(c.Ways, ways)
	if !ok {
		panic(fmt.Sprintf("trace: AssocCurve profiled at ways %v asked for %d", c.Ways, ways))
	}
	return c.misses[i]
}

// Full returns the underlying fully-associative MissCurve when the curve
// was profiled with a single set and no bound, and nil otherwise.
func (c *AssocCurve) Full() *MissCurve {
	if c.Sets != 1 {
		return nil
	}
	return c.curve
}
