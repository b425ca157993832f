package trace

import "math/bits"

// timeline is the profiler's order-statistics structure over last-access
// times. Conceptually it is the LRU stack: each live block occupies one
// slot, slots are ordered by recency, and the stack depth of a reaccess is
// one plus the number of live slots more recent than the block's own.
//
// It is a 64-ary counted bitmap: one occupancy bit per slot, above the
// words one live count per 64 words, above those one count per 64 counts,
// until a level fits in one group — so the level count follows from the
// slot space. Appending or removing a slot is a bit flip plus one counter
// update per level; counting the live slots above one is a popcount of its
// word, then of the words up to the end of its group, then the counters up
// to the end of theirs, level by level and never past the newest slot.
// Every access burns one slot and a streaming schedule's reuses are
// recent, so the walk usually ends within a word or two (worst case 63
// steps per level).
//
// A slot is live exactly when its bit is set; blkOf names its block only
// so compaction can tell the owner where it moved. Dead slots accumulate
// as blocks are reaccessed, so when the slot space runs out the live slots
// are renumbered 1..live in recency order (consecutive slots stay
// consecutive) into a space of at least four times their number: memory
// follows the distinct blocks, not the trace length, at amortised O(1) per
// append. A space that must grow at least doubles, so a footprint that
// creeps up between compactions reallocates O(log) times, not on most of
// them.
type timeline struct {
	words  []uint64  // occupancy, bit s&63 of words[s>>6]; slot 0 is never used
	counts [][]int32 // counts[l][i]: live slots under entry i of level l+1
	blkOf  []int64   // slot -> block holding it (meaningful for live slots)
	next   int32     // next unused slot
	live   int32     // number of live slots
	ops    int64     // structural operations (append/remove/count) performed
}

func newTimeline() *timeline {
	t := &timeline{next: 1}
	t.resize(64 * 64) // one group of words: no counter level yet
	return t
}

// resize replaces the bitmap with an empty one of at least slots slots
// and as many counter levels as that needs.
func (t *timeline) resize(slots int32) {
	n := (int(slots) + 63) / 64
	t.words = make([]uint64, n)
	t.blkOf = make([]int64, n*64)
	t.counts = t.counts[:0]
	for n > 64 {
		n = (n + 63) / 64
		t.counts = append(t.counts, make([]int32, n))
	}
}

// cap returns the size of the slot space.
func (t *timeline) cap() int32 { return int32(len(t.blkOf)) }

// Len returns the number of live slots.
func (t *timeline) Len() int { return int(t.live) }

// flip sets (d = +1) or clears (d = -1) the occupancy of the n slots from
// slot up, all of which must be in the opposite state.
func (t *timeline) flip(slot, n, d int32) {
	t.live += d * n
	for n > 0 {
		w, off := slot>>6, slot&63
		k := 64 - off
		if k > n {
			k = n
		}
		t.words[w] ^= (^uint64(0) >> uint(64-k)) << uint(off)
		for _, c := range t.counts {
			w >>= 6
			c[w] += d * k
		}
		slot, n = slot+k, n-k
	}
}

// CountAfter returns the number of live slots strictly more recent than
// slot — the blocks above it in the LRU stack.
func (t *timeline) CountAfter(slot int32) int64 {
	t.ops++
	i := int(slot >> 6)
	last := int(t.next-1) >> 6 // nothing is live past this word
	n := bits.OnesCount64(t.words[i] >> uint(slot&63) >> 1)
	end := i | 63
	if end > last {
		end = last
	}
	for _, w := range t.words[i+1 : end+1] {
		n += bits.OnesCount64(w)
	}
	// While the newest slot lies beyond entry i's group, add the rest of
	// the parent level's group the same way.
	for _, c := range t.counts {
		if i|63 >= last {
			break
		}
		i, last = i>>6, last>>6
		end := i | 63
		if end > last {
			end = last
		}
		for _, v := range c[i+1 : end+1] {
			n += int(v)
		}
	}
	return int64(n)
}

// Remove kills n live slots starting at slot.
func (t *timeline) Remove(slot, n int32) {
	t.ops++
	t.flip(slot, n, -1)
}

// Room makes sure n more slots can be appended, compacting if the slot
// space would run out. Compaction renumbers every live slot in recency
// order and reports each surviving block's new slot through relabel.
func (t *timeline) Room(n int32, relabel func(blk int64, slot int32)) {
	if t.next+n > t.cap() {
		t.compact(n, relabel)
	}
}

// Append assigns the next n (most recent) slots to the blocks blk, blk+1,
// … in that order and returns the first. The caller has made Room.
func (t *timeline) Append(blk int64, n int32) int32 {
	t.ops++
	s := t.next
	t.next += n
	for i := int32(0); i < n; i++ {
		t.blkOf[s+i] = blk + int64(i)
	}
	t.flip(s, n, +1)
	return s
}

// compact renumbers the live slots 1..live in recency order, in place when
// the slot space holds four times their number plus need, into a fresh one
// that big and at least twice the old one otherwise. In place, live slot k
// moves down to k — never up past a slot still to be read — and then the
// bitmap and its counters are cleared and the live prefix set again.
func (t *timeline) compact(need int32, relabel func(int64, int32)) {
	words, blkOf, live := t.words, t.blkOf, t.live
	if size := 4 * (live + need + 1024); size > t.cap() {
		t.resize(max(size, 2*t.cap()))
	}
	var n int32
	for w := range words {
		for bitsLeft := words[w]; bitsLeft != 0; bitsLeft &= bitsLeft - 1 {
			blk := blkOf[w<<6+bits.TrailingZeros64(bitsLeft)]
			n++
			t.blkOf[n] = blk
			relabel(blk, n)
		}
	}
	clear(t.words)
	for _, c := range t.counts {
		clear(c)
	}
	t.live = 0
	t.flip(1, n, +1)
	t.next = n + 1
}
