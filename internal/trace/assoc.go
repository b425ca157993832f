package trace

import (
	"fmt"
	"slices"
)

// Set-associative LRU profiling. A set-associative cache is a bank of
// independent small fully-associative caches: block blk lives in set
// blk mod sets, and within a set the replacement policy orders only that
// set's blocks. Because the set index is a pure function of the block id,
// LRU-within-a-set is still a stack algorithm: a W-way cache of capacity M
// words and block B has sets = (M/B)/W, and it misses an access exactly
// when the block's depth in its set's stack exceeds W. A request names the
// way counts it evaluates (OrgSpec.LRUWays), so each set keeps only its
// deepest listed way count of blocks — laneRows' rows here, marker
// lists in marker.go — and one pass answers every listed way count at once.
// Only the fully-associative family (one set) may leave its way counts
// open; the timeline Profiler answers every capacity there.

// setIndex maps a block id to its set, mirroring cachesim's placement
// (set = blk mod sets, floored for negative ids). A power-of-two set count
// reduces to a mask.
type setIndex struct {
	sets int64
	mask int64 // sets-1 when sets is a power of two, else -1
}

func newSetIndex(sets int64) setIndex {
	s := setIndex{sets: sets, mask: -1}
	if sets&(sets-1) == 0 {
		s.mask = sets - 1
	}
	return s
}

// set returns blk's set index.
func (s setIndex) set(blk int64) int64 {
	if s.mask >= 0 {
		return blk & s.mask
	}
	set := blk % s.sets
	if set < 0 {
		set += s.sets
	}
	return set
}

// moveToFront is the rows' stack kernel: a single pass that writes x at the
// head of the row and carries every entry one place down until it meets x's
// old copy, whose 1-based position — x's stack depth — it returns. When x is
// not in the row the whole row has moved down, its last entry falling off
// the end, and it returns 0.
func moveToFront(row []int32, x int32) int {
	prev := x
	for i, e := range row {
		row[i] = prev
		if e == x {
			return i + 1
		}
		prev = e
	}
	return 0
}

// laneRows is the row form of a request-bounded family, for every lane of
// an orgStore: when the way counts a request evaluates are known, an access
// deeper than the deepest misses at every one of them, so each set keeps
// only its bound most recent blocks. Every (set, lane) row lives in one
// flat move-to-front arena laid out [set][lane][bound], so the lanes an
// access reaches touch neighbouring rows. Rows hold the blocks' blockTable
// slots, which identify a block as exactly as its id does.
//
// A reuse at depth 1, the commonest at L2, leaves the row as it is, so it is
// read off heads — every row's first entry, [set][lane], a small fraction of
// the rows — and not counted: the lane's accesses less its other depths are
// its depth-1 count, which only the curve needs. The commonest touch thus
// reads one small array and stores nothing.
type laneRows struct {
	idx   setIndex
	ways  []int64 // the way counts, ascending and distinct
	bound int     // the deepest of them
	lanes int
	rows  []int32 // sets*lanes*bound entries, most recent first; noSlot = empty
	heads []int32 // sets*lanes: each row's first entry
	// hist[lane*(bound+1)+d], 2 <= d <= bound: the lane's counted accesses
	// found at depth d; d == 0: those not found in their row (cold included);
	// d == 1 stays zero.
	hist []int64
}

func newLaneRows(sets int64, ways []int64, lanes int) laneRows {
	bound := int(ways[len(ways)-1])
	return laneRows{idx: newSetIndex(sets), ways: ways, bound: bound, lanes: lanes,
		rows: slices.Repeat([]int32{noSlot}, int(sets)*lanes*bound), heads: slices.Repeat([]int32{noSlot}, int(sets)*lanes),
		hist: make([]int64, lanes*(bound+1))}
}

// touch is the one row kernel: it feeds the block in slot to row — set
// set's row of lane, numbered set*lanes + lane — and returns the depth it
// was found at, 0 when it is deeper than the bound (or cold): the row's last
// entry has then fallen off the stack. A reuse at depth 1 is read off the
// row's head and changes nothing. The kernel takes the row number, not the
// set, so that it stays small enough to inline into both profilers' loops.
func (f *laneRows) touch(row int, slot int32, lane int) int {
	if f.heads[row] == slot {
		return 1
	}
	f.heads[row] = slot
	d := moveToFront(f.rows[row*f.bound:][:f.bound], slot)
	f.hist[lane*(f.bound+1)+d]++
	return d
}

// curve answers the family's way counts for one lane of the given counted
// accesses. An access misses at w exactly when it was found past w or not at
// all, so the misses need no depth-1 count: the lane's depth-1 reuses, which
// the rows never count, are its accesses less the histogram's total.
func (f *laneRows) curve(lane int, accesses, cold int64) *AssocCurve {
	hist := f.hist[lane*(f.bound+1):][:f.bound+1]
	misses := make([]int64, len(f.ways))
	left, d := hist[0], f.bound
	for i := len(f.ways) - 1; i >= 0; i-- {
		for ; d > int(f.ways[i]); d-- {
			left += hist[d]
		}
		misses[i] = left
	}
	return &AssocCurve{Sets: f.idx.sets, Accesses: accesses, Cold: cold, Ways: f.ways, misses: misses}
}

// AssocCurve is the result of per-set reuse-distance profiling: the exact
// set-associative LRU miss count of the recorded (windowed) stream for a
// fixed set count at each way count its request listed, or — for the
// fully-associative family only, when its way counts were left open — at
// every capacity.
type AssocCurve struct {
	// Sets is the set count the trace was sharded by.
	Sets int64
	// Accesses is the number of counted (in-window) block accesses.
	Accesses int64
	// Cold is the number of counted first-ever accesses.
	Cold int64
	// Ways lists the way counts a request-bounded curve answers, ascending;
	// empty means every capacity of a fully-associative curve.
	Ways   []int64
	curve  *MissCurve // unbounded (Sets == 1): the full stack's curve
	misses []int64    // request-bounded: misses[i] is the count at Ways[i]
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

// Full returns the fully-associative MissCurve of an unbounded curve, and
// nil for a request-bounded one.
func (c *AssocCurve) Full() *MissCurve { return c.curve }
