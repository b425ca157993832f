package cachesim

import (
	"fmt"
	"math"
)

// Bank is the organisational core of one cache level: a set-indexed,
// policy-ordered container of block ids, without Cache's word addressing
// or statistics. Cache is a Bank plus those; multi-level hierarchies
// (internal/hierarchy) compose levels out of Banks directly: a two-level
// simulator is two Banks with the L1's miss stream feeding the L2, and a
// Bank replay is the oracle the one-pass hierarchy profiler's derived L1
// miss streams are tested against.
//
// Block blk lives in set blk mod sets (floored, so negative ids map
// collision-free too). Within a set the entries are kept in policy order,
// newest first — LRU order is recency (a hit moves the block to the
// front), FIFO order is insertion (hits do not reorder) — and eviction
// always takes the back. A Bank with one set and ways == lines is the
// fully-associative level.
//
// Set s owns the slots [s·ways, (s+1)·ways), chained newest first; its
// unused slots form a free chain. A block -> slot index (a flat slice for
// small non-negative ids, a map for negative or far ids, as in
// trace.Profiler) makes Access, Insert, Remove, Contains and Len O(1) at
// any associativity.
//
// Bank is not safe for concurrent use.
type Bank struct {
	sets   int64
	ways   int64
	policy Policy
	slots  []slot
	chains []chain // per set
	n      int64   // resident blocks

	dense   []int32         // block -> slot+1, 0 = not resident (small ids)
	sparse  map[int64]int32 // the same for negative or far ids
	inserts int64           // Insert calls so far: the flat slice's growth budget
}

// slot holds one resident block and its neighbours in the set's chain
// (-1 at either end). A free slot's older link threads the free chain.
type slot struct {
	blk          int64
	newer, older int32
}

// chain is one set's policy order and free list, as slot indices (-1 =
// none).
type chain struct {
	newest, oldest, free int32
}

// denseLimit caps the flat block index at 16M entries (64 MiB), the same
// cap trace.Profiler uses; blocks beyond it always fall back to the map.
const denseLimit = 1 << 24

// NewBank returns an empty bank of sets x ways lines under the given
// policy. It panics on a non-positive geometry, more than MaxInt32 lines,
// or an unknown policy (programmer error, like an invalid cache config).
func NewBank(sets, ways int64, policy Policy) *Bank {
	if sets < 1 || ways < 1 || ways > math.MaxInt32/sets {
		panic(fmt.Sprintf("cachesim: Bank needs positive geometry of at most MaxInt32 lines, got %dx%d", sets, ways))
	}
	if policy != LRU && policy != FIFO {
		panic(fmt.Sprintf("cachesim: Bank got unknown policy %d", int(policy)))
	}
	b := &Bank{
		sets: sets, ways: ways, policy: policy,
		slots:  make([]slot, sets*ways),
		chains: make([]chain, sets),
	}
	for i := range b.slots {
		b.slots[i].older = int32(i) + 1
		if int64(i+1)%ways == 0 {
			b.slots[i].older = -1
		}
	}
	for s := range b.chains {
		b.chains[s] = chain{newest: -1, oldest: -1, free: int32(int64(s) * ways)}
	}
	return b
}

// chainOf maps a block to its set's chain, collision-free for negative ids
// too.
func (b *Bank) chainOf(blk int64) *chain {
	s := blk % b.sets
	if s < 0 {
		s += b.sets
	}
	return &b.chains[s]
}

// Access looks blk up and applies the policy's hit behaviour (LRU moves it
// to the front of its set; FIFO leaves the order alone). It reports whether
// the block was resident; on a miss the bank is unchanged — the caller
// decides whether to Insert.
func (b *Bank) Access(blk int64) bool {
	i := b.find(blk)
	if i < 0 {
		return false
	}
	if b.policy == LRU {
		if ch := b.chainOf(blk); ch.newest != i {
			b.unlink(ch, i)
			b.pushFront(ch, i)
		}
	}
	return true
}

// Contains reports residency without touching the policy order. It is
// the oracle for residency: TestBankMatchesReference holds it against a
// naive per-set reference after every operation.
func (b *Bank) Contains(blk int64) bool { return b.find(blk) >= 0 }

// Insert places blk at the front of its set, evicting the back entry if
// the set is full; it returns the victim, if any. The caller must ensure
// blk is not already resident (Insert after a failed Access).
func (b *Bank) Insert(blk int64) (victim int64, evicted bool) {
	ch := b.chainOf(blk)
	i := ch.free
	if i >= 0 {
		ch.free = b.slots[i].older
		b.n++
	} else {
		i = ch.oldest
		victim, evicted = b.slots[i].blk, true
		b.unlink(ch, i)
		b.index(victim, 0)
	}
	b.slots[i].blk = blk
	b.pushFront(ch, i)
	b.inserts++
	b.index(blk, i+1)
	return victim, evicted
}

// Remove deletes blk from its set, preserving the order of the remaining
// entries, and reports whether it was resident. Exclusive hierarchies use
// it to pull a block out of the victim level on promotion.
func (b *Bank) Remove(blk int64) bool {
	i := b.find(blk)
	if i < 0 {
		return false
	}
	ch := b.chainOf(blk)
	b.unlink(ch, i)
	b.slots[i].older, ch.free = ch.free, i
	b.index(blk, 0)
	b.n--
	return true
}

// Len returns the number of resident blocks.
func (b *Bank) Len() int64 { return b.n }

func (b *Bank) unlink(ch *chain, i int32) {
	s := &b.slots[i]
	if s.newer >= 0 {
		b.slots[s.newer].older = s.older
	} else {
		ch.newest = s.older
	}
	if s.older >= 0 {
		b.slots[s.older].newer = s.newer
	} else {
		ch.oldest = s.newer
	}
}

func (b *Bank) pushFront(ch *chain, i int32) {
	b.slots[i].newer, b.slots[i].older = -1, ch.newest
	if ch.newest >= 0 {
		b.slots[ch.newest].newer = i
	} else {
		ch.oldest = i
	}
	ch.newest = i
}

// find returns blk's slot, or -1 when it is not resident.
func (b *Bank) find(blk int64) int32 {
	if uint64(blk) < uint64(len(b.dense)) {
		return b.dense[blk] - 1
	}
	return b.sparse[blk] - 1
}

// index records ref (slot+1, or 0 to forget) as blk's entry. The flat
// slice covers [0, len(dense)) and the map every other id. The slice grows
// (at least doubling, at most to denseLimit) only to an id below twice the
// inserts served plus the line count, so its memory stays proportional to
// the work done and one far id costs a map entry rather than a table
// reaching it; map entries a growth covers move over.
func (b *Bank) index(blk int64, ref int32) {
	if n := int64(len(b.dense)); ref != 0 && blk >= n && blk < min(2*b.inserts+int64(len(b.slots)), denseLimit) {
		grown := make([]int32, min(max(2*n, blk+1), denseLimit))
		copy(grown, b.dense)
		for id, r := range b.sparse {
			if uint64(id) < uint64(len(grown)) {
				grown[id] = r
				delete(b.sparse, id)
			}
		}
		b.dense = grown
	}
	switch {
	case uint64(blk) < uint64(len(b.dense)):
		b.dense[blk] = ref
	case ref == 0:
		delete(b.sparse, blk)
	default:
		if b.sparse == nil {
			b.sparse = make(map[int64]int32, 64)
		}
		b.sparse[blk] = ref
	}
}
