package trace

import (
	"math"
	"math/bits"
	"slices"
)

// FIFO profiling. FIFO is not a stack algorithm — a bigger FIFO cache can
// miss more (Belady's anomaly) and eviction order is insertion order, not
// recency — so there is no single-pass structure that answers every
// capacity at once the way Mattson's algorithm does for LRU. What still
// works is replay multiplexing: a FIFO set is just a circular buffer, so
// one pass over the trace can drive an arbitrary number of per-set FIFO
// replicas (one per requested (sets, ways) point) side by side. A FIFO hit
// changes nothing, so the only per-access question is "which replicas
// hold this block?" — and fifoBank answers it for all of them with one
// load: each block carries a bitmask with one residency bit per replica.
// Work is then proportional to misses: insert at the replica's head, clear
// the victim's bit. One recorded trace therefore still answers every
// requested FIFO point without re-running the scheduler or the simulator.
// A one-way FIFO cache needs no replica at all: with one line per set,
// both policies evict the only block, so it is the one-way LRU cache.
//
// The kernel is shaped by its unit of work, the insertion, of which a
// grid of small caches makes several per access (orgs-grid's 20 replicas
// about 4.7). The residency masks are stored word-major — one column per
// mask word, indexed by slot — so a victim's bit is cleared by its slot
// alone; each mask word's misses run in a function of their own, with the
// word's descriptors, counters and arenas in locals; the insertion head
// wraps without a branch; and one kernel serves every set count, way
// count, replica count and slot sign.

// noSlot marks an empty row entry; blockTable never hands it out.
const noSlot = math.MinInt32

// blockTable names the blocks an organisation profiler has seen by slot —
// the id a request-bounded family's rows and marker lists and the FIFO
// replicas hold — and keeps each block's first-ever bit, the cold-miss
// tracker. Small non-negative ids are their own slots and keep their bit in
// a flat bitmap; sparse or negative ids get slots counted down from -1 in a
// side map, like Profiler's block index, and a new map entry is their first
// sight.
type blockTable struct {
	seen   []uint64 // slot s >= 0: bit s&63 of seen[s>>6]
	sparse map[int64]int32
	cold   int64 // counted first-ever accesses
}

// slot returns blk's slot, counting the access cold on the block's first
// sight.
func (t *blockTable) slot(blk int64) int32 {
	if t.see(blk) {
		return int32(blk)
	}
	return t.slowSlot(blk)
}

// see is slot's fast path, small enough to inline: when blk is a dense id
// inside the bitmap — its own slot — it sets the block's seen bit, counting
// a first sight cold, and reports true.
func (t *blockTable) see(blk int64) bool {
	i := uint64(blk) >> 6
	if i >= uint64(len(t.seen)) {
		return false
	}
	w := t.seen[i]
	t.cold += int64(^w >> (blk & 63) & 1)
	t.seen[i] = w | 1<<(blk&63)
	return true
}

// slowSlot is slot off its fast path: a dense id past the bitmap, or a
// sparse or negative one.
func (t *blockTable) slowSlot(blk int64) int32 {
	if blk >= 0 && blk < denseLimit {
		t.seen = growCells(t.seen, int(blk>>6)+1)
		return t.slot(blk)
	}
	s, ok := t.sparse[blk]
	if !ok {
		if t.sparse == nil {
			t.sparse = make(map[int64]int32, 64)
		}
		s = ^int32(len(t.sparse))
		t.sparse[blk] = s
		t.cold++
	}
	return s
}

// fifoBank is the FIFO replicas of an organisation profiler and one
// residency bit per replica per block: bit r%64 of a block's mask word r/64
// says that replica r holds it. The masks are word-major: mask word w of
// every block lives in column w, slot s >= 0's at dense[w][s] and a sparse
// slot s < 0's at side[w][^s]. The replicas are flat: every replica's rows
// live in one rows arena and every replica's per-set insertion heads in one
// heads arena, a replica is a descriptor of offsets into them, and the miss
// counters sit beside the descriptors. Both are padded to whole mask words,
// so a word's 64 descriptors and counters are fixed-size arrays.
type fifoBank struct {
	full   []uint64   // per word: the bits of existing replicas
	missed []uint64   // per word: the replicas the last touch missed in
	dense  [][]uint64 // per word: the column of slots s >= 0
	side   [][]uint64 // per word: the column of slots s < 0, at ^s
	reps   []fifoReplica
	misses []int64 // per replica
	rows   []int32 // per replica: sets*ways block slots, noSlot = empty
	heads  []int32 // per replica: per set, the next insertion way
}

// fifoReplica is one (sets, ways) FIFO cache: per-set circular buffers of
// block slots in the bank's rows. It mirrors cachesim's FIFO exactly: empty slots fill in
// index order and eviction removes the oldest insertion.
type fifoReplica struct {
	idx   setIndex
	ways  int64
	rows  int64 // offset of its sets*ways entries in the bank's rows
	heads int64 // offset of its per-set heads in the bank's heads
}

// addReplica adds a FIFO cache of sets x ways lines and returns its replica
// number. Replicas must be added before the first touch.
func (b *fifoBank) addReplica(sets, ways int64) int {
	r := 0
	for _, f := range b.full {
		r += bits.OnesCount64(f)
	}
	if r%64 == 0 {
		b.full = append(b.full, 0)
		b.missed = append(b.missed, 0)
		b.dense = append(b.dense, nil)
		b.side = append(b.side, nil)
		b.reps = append(b.reps, make([]fifoReplica, 64)...)
		b.misses = append(b.misses, make([]int64, 64)...)
	}
	b.full[r/64] |= 1 << (r % 64)
	b.reps[r] = fifoReplica{idx: newSetIndex(sets), ways: ways, rows: int64(len(b.rows)), heads: int64(len(b.heads))}
	b.rows = append(b.rows, slices.Repeat([]int32{noSlot}, int(sets*ways))...)
	b.heads = append(b.heads, make([]int32, sets)...)
	return r
}

// touch processes one access to blk, the block in slot, one mask word of
// replicas at a time.
func (b *fifoBank) touch(blk int64, slot int32) {
	for w := range b.missed {
		b.touchWord(w, blk, slot)
	}
}

// touchWord is touch for the replicas of mask word w. Every replica the
// block misses in gets its bit set in one OR, inserts slot at the set's
// head and clears the evicted slot's bit. A victim was inserted by an
// earlier touch, which sized this word's column for it, so its bit is
// cleared by direct index.
func (b *fifoBank) touchWord(w int, blk int64, slot int32) {
	cols, i := b.dense, int(slot)
	if slot < 0 {
		cols, i = b.side, int(^slot)
	}
	col := cols[w]
	if i >= len(col) {
		col = growCells(col, i+1)
		cols[w] = col
	}
	have := col[i]
	miss := b.full[w] &^ have
	col[i] = have | miss
	b.missed[w] = miss
	reps, misses := (*[64]fifoReplica)(b.reps[w*64:]), (*[64]int64)(b.misses[w*64:])
	rows, heads, dense := b.rows, b.heads, b.dense[w]
	for ; miss != 0; miss &= miss - 1 {
		bit := bits.TrailingZeros64(miss) & 63 // & 63: no bounds check on the arrays
		r := &reps[bit]
		misses[bit]++
		set := r.idx.set(blk)
		hi := r.heads + set
		h := heads[hi]
		at := r.rows + set*r.ways + int64(h)
		victim := rows[at]
		rows[at] = slot
		h++
		h &= int32((int64(h) - r.ways) >> 63) // 0 once h reaches ways
		heads[hi] = h
		if victim >= 0 {
			dense[victim] &^= 1 << bit
		} else if victim != noSlot {
			b.side[w][^victim] &^= 1 << bit
		}
	}
}

// resetCounts zeroes the miss counters while keeping every replica's
// contents, exactly like resetting the cache simulator's statistics after
// warmup.
func (b *fifoBank) resetCounts() {
	clear(b.misses)
}

// uniqueWays returns the distinct way counts of a list, ascending.
func uniqueWays(ways []int64) []int64 {
	return slices.Compact(slices.Sorted(slices.Values(ways)))
}

// FIFOCurve is the result of multiplexed FIFO replay: the exact FIFO miss
// count of the recorded (windowed) stream for a fixed set count at each
// replayed way count. Unlike the LRU curves it is defined only at the way
// counts that were replayed.
type FIFOCurve struct {
	// Sets is the set count the trace was sharded by.
	Sets int64
	// Accesses is the number of counted (in-window) block accesses.
	Accesses int64
	// Cold is the number of counted first-ever accesses.
	Cold   int64
	ways   []int64
	misses []int64
}

// Misses returns the exact miss count of a Sets-set FIFO cache with the
// given way count; ok is false if that way count was not replayed.
func (c *FIFOCurve) Misses(ways int64) (n int64, ok bool) {
	for i, w := range c.ways {
		if w == ways {
			return c.misses[i], true
		}
	}
	return 0, false
}
