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
// residency bit per replica per block: bit r of a block's mask says that
// replica r holds it. Blocks are addressed by their blockTable slot: slot
// s >= 0 owns dense[s*words : (s+1)*words], s < 0 owns side[^s*words : …].
// The replicas are flat: every replica's rows live in one rows arena and
// every replica's per-set insertion heads in one heads arena, and a
// replica is a descriptor of offsets into them.
type fifoBank struct {
	words  int      // mask words per block
	full   []uint64 // per word: the bits of existing replicas
	missed []uint64 // per word: the replicas the last touch missed in
	dense  []uint64
	side   []uint64
	reps   []fifoReplica
	rows   []int32 // per replica: sets*ways block slots, noSlot = empty
	heads  []int32 // per replica: per set, the next insertion way
}

// fifoReplica is one (sets, ways) FIFO cache: per-set circular buffers of
// block slots in the bank's rows. It mirrors cachesim's FIFO exactly: empty slots fill in
// index order and eviction removes the oldest insertion.
type fifoReplica struct {
	idx    setIndex
	ways   int64
	rows   int64 // offset of its sets*ways entries in the bank's rows
	heads  int64 // offset of its per-set heads in the bank's heads
	misses int64
}

// addReplica adds a FIFO cache of sets x ways lines and returns its replica
// number. Replicas must be added before the first touch.
func (b *fifoBank) addReplica(sets, ways int64) int {
	r := len(b.reps)
	b.reps = append(b.reps, fifoReplica{idx: newSetIndex(sets), ways: ways, rows: int64(len(b.rows)), heads: int64(len(b.heads))})
	b.rows = append(b.rows, slices.Repeat([]int32{noSlot}, int(sets*ways))...)
	b.heads = append(b.heads, make([]int32, sets)...)
	if r/64 == b.words {
		b.words++
		b.full = append(b.full, 0)
		b.missed = append(b.missed, 0)
	}
	b.full[r/64] |= 1 << (r % 64)
	return r
}

// mask returns the slot's mask words, growing the tables on first sight.
func (b *fifoBank) mask(slot int32) []uint64 {
	cells, i := &b.dense, int(slot)
	if slot < 0 {
		cells, i = &b.side, int(^slot)
	}
	if need := (i + 1) * b.words; need > len(*cells) {
		*cells = growCells(*cells, need)
	}
	return (*cells)[i*b.words:][:b.words]
}

// touch processes one access to blk, the block in slot: every replica it
// misses in gets its bit set in one OR per word, inserts slot at the set's
// head and clears the evicted slot's bit. A victim was inserted by an
// earlier touch, which sized its mask, so its bit is cleared by direct
// index.
func (b *fifoBank) touch(blk int64, slot int32) {
	m := b.mask(slot)
	for w, have := range m {
		miss := b.full[w] &^ have
		b.missed[w] = miss
		m[w] = have | miss
		for ; miss != 0; miss &= miss - 1 {
			bit := bits.TrailingZeros64(miss)
			r := &b.reps[w*64+bit]
			r.misses++
			set := r.idx.set(blk)
			head := &b.heads[r.heads+set]
			at := r.rows + set*r.ways + int64(*head)
			victim := b.rows[at]
			b.rows[at] = slot
			if *head++; int64(*head) == r.ways {
				*head = 0
			}
			if victim >= 0 {
				b.dense[int(victim)*b.words+w] &^= 1 << bit
			} else if victim != noSlot {
				b.side[int(^victim)*b.words+w] &^= 1 << bit
			}
		}
	}
}

// resetCounts zeroes the miss counters while keeping every replica's
// contents, exactly like resetting the cache simulator's statistics after
// warmup.
func (b *fifoBank) resetCounts() {
	for i := range b.reps {
		b.reps[i].misses = 0
	}
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
