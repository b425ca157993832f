package trace

import (
	"math"
	"math/bits"
	"sort"
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

// noSlot marks an empty row entry; blockTable never hands it out.
const noSlot = math.MinInt32

// fifoBank is the per-block state every organisation profiler shares —
// bit 0 of a block's mask records that it was ever accessed (the cold-miss
// tracker), bit r+1 that FIFO replica r holds it — plus the replicas
// themselves. Blocks are addressed by slot: small non-negative ids index
// the dense mask table directly, sparse or negative ids get slots counted
// down from -1 in a side table, like Profiler's block index.
type fifoBank struct {
	words  int      // mask words per block
	full   []uint64 // per word: the bits of existing replicas
	missed []uint64 // per word: the replicas the last touch missed in
	dense  []uint64 // slot s >= 0 owns dense[s*words : (s+1)*words]
	side   []uint64 // slot s < 0 owns side[^s*words : (^s+1)*words]
	sparse map[int64]int32
	reps   []fifoReplica

	accesses int64
	cold     int64
}

// fifoReplica is one (sets, ways) FIFO cache: per-set circular buffers of
// block slots. It mirrors cachesim's FIFO exactly: empty slots fill in
// index order and eviction removes the oldest insertion.
type fifoReplica struct {
	family int // which of the caller's set indices places blocks here
	ways   int64
	rows   []int32 // sets*ways entries, noSlot = empty
	head   []int32 // per set: next insertion slot
	misses int64
}

func newFIFOBank() *fifoBank {
	return &fifoBank{words: 1, full: []uint64{0}, missed: []uint64{0}}
}

// addReplica adds a FIFO cache of sets x ways lines placed by the caller's
// family-th set index, and returns its replica number. Replicas must be
// added before the first touch.
func (b *fifoBank) addReplica(family int, sets, ways int64) int {
	r := len(b.reps)
	rows := make([]int32, sets*ways)
	for i := range rows {
		rows[i] = noSlot
	}
	b.reps = append(b.reps, fifoReplica{family: family, ways: ways, rows: rows, head: make([]int32, sets)})
	bit := r + 1
	for bit/64 >= b.words {
		b.words++
		b.full = append(b.full, 0)
		b.missed = append(b.missed, 0)
	}
	b.full[bit/64] |= 1 << (bit % 64)
	return r
}

// slot returns blk's slot, assigning one on first sight.
func (b *fifoBank) slot(blk int64) int32 {
	if blk >= 0 && blk < denseLimit {
		if need := (int(blk) + 1) * b.words; need > len(b.dense) {
			n := 2 * len(b.dense)
			if n < 1024*b.words {
				n = 1024 * b.words
			}
			for n < need {
				n *= 2
			}
			grown := make([]uint64, n)
			copy(grown, b.dense)
			b.dense = grown
		}
		return int32(blk)
	}
	s, ok := b.sparse[blk]
	if !ok {
		if b.sparse == nil {
			b.sparse = make(map[int64]int32, 64)
		}
		s = ^int32(len(b.sparse))
		b.sparse[blk] = s
		b.side = append(b.side, make([]uint64, b.words)...)
	}
	return s
}

// mask returns the slot's mask words.
func (b *fifoBank) mask(slot int32) []uint64 {
	if slot >= 0 {
		return b.dense[int(slot)*b.words:][:b.words]
	}
	return b.side[int(^slot)*b.words:][:b.words]
}

// touch processes one access to the block in slot; sets[f] is its set
// index under family f.
func (b *fifoBank) touch(slot int32, sets []int64) {
	b.accesses++
	m := b.mask(slot)
	if m[0]&1 == 0 {
		m[0] |= 1
		b.cold++
	}
	for w, have := range m {
		miss := b.full[w] &^ have
		b.missed[w] = miss
		for ; miss != 0; miss &= miss - 1 {
			bit := bits.TrailingZeros64(miss)
			r := &b.reps[w*64+bit-1]
			r.misses++
			set := sets[r.family]
			at := set*r.ways + int64(r.head[set])
			if victim := r.rows[at]; victim != noSlot {
				b.mask(victim)[w] &^= 1 << bit
			}
			r.rows[at] = slot
			if r.head[set]++; int64(r.head[set]) == r.ways {
				r.head[set] = 0
			}
			m[w] |= 1 << bit
		}
	}
}

// resetCounts zeroes the counters while keeping every replica's contents
// and the ever-accessed bits, exactly like resetting the cache
// simulator's statistics after warmup.
func (b *fifoBank) resetCounts() {
	b.accesses, b.cold = 0, 0
	for i := range b.reps {
		b.reps[i].misses = 0
	}
}

// uniqueWays returns the distinct way counts of a list, ascending.
func uniqueWays(ways []int64) []int64 {
	uniq := append([]int64(nil), ways...)
	sort.Slice(uniq, func(i, j int) bool { return uniq[i] < uniq[j] })
	n := 0
	for i, w := range uniq {
		if i == 0 || w != uniq[i-1] {
			uniq[n] = w
			n++
		}
	}
	return uniq[:n]
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
