package cachesim

import "fmt"

// Bank is the organisational core of one cache level: a set-indexed,
// policy-ordered container of block ids, without Cache's word addressing,
// dirty tracking, or statistics. It exists so multi-level hierarchies
// (internal/hierarchy) can compose levels out of exact single-level
// building blocks: a two-level simulator is two Banks with the L1's miss
// stream feeding the L2, and a Bank replay is the oracle the one-pass
// hierarchy profiler's derived L1 miss streams are tested against.
//
// Placement mirrors Cache exactly: block blk lives in set blk mod sets.
// Within a set the entries are kept in policy order, newest first — LRU
// order is recency (a hit moves the block to the front), FIFO order is
// insertion (hits do not reorder) — and eviction always takes the back.
// A Bank with one set and ways == lines is the fully-associative level.
//
// Bank is not safe for concurrent use.
type Bank struct {
	sets   int64
	ways   int64
	policy Policy
	order  [][]int64 // per set, newest first
}

// NewBank returns an empty bank of sets x ways lines under the given
// policy. It panics on a non-positive geometry or unknown policy
// (programmer error, like an invalid cache config).
func NewBank(sets, ways int64, policy Policy) *Bank {
	if sets < 1 || ways < 1 {
		panic(fmt.Sprintf("cachesim: Bank needs positive geometry, got %dx%d", sets, ways))
	}
	if policy != LRU && policy != FIFO {
		panic(fmt.Sprintf("cachesim: Bank got unknown policy %d", int(policy)))
	}
	return &Bank{sets: sets, ways: ways, policy: policy, order: make([][]int64, sets)}
}

// Sets returns the number of sets.
func (b *Bank) Sets() int64 { return b.sets }

// Ways returns the lines per set.
func (b *Bank) Ways() int64 { return b.ways }

// setOf maps a block to its set, collision-free for negative ids too.
func (b *Bank) setOf(blk int64) int64 {
	s := blk % b.sets
	if s < 0 {
		s += b.sets
	}
	return s
}

// Access looks blk up and applies the policy's hit behaviour (LRU moves it
// to the front of its set; FIFO leaves the order alone). It reports whether
// the block was resident; on a miss the bank is unchanged — the caller
// decides whether to Insert.
func (b *Bank) Access(blk int64) bool {
	row := b.order[b.setOf(blk)]
	for i, v := range row {
		if v == blk {
			if b.policy == LRU && i > 0 {
				copy(row[1:i+1], row[:i])
				row[0] = blk
			}
			return true
		}
	}
	return false
}

// Contains reports residency without touching the policy order.
func (b *Bank) Contains(blk int64) bool {
	for _, v := range b.order[b.setOf(blk)] {
		if v == blk {
			return true
		}
	}
	return false
}

// Insert places blk at the front of its set, evicting the back entry if
// the set is full; it returns the victim, if any. The caller must ensure
// blk is not already resident (Insert after a failed Access).
func (b *Bank) Insert(blk int64) (victim int64, evicted bool) {
	set := b.setOf(blk)
	row := b.order[set]
	if int64(len(row)) < b.ways {
		row = append(row, 0)
		copy(row[1:], row)
		row[0] = blk
		b.order[set] = row
		return 0, false
	}
	victim = row[len(row)-1]
	copy(row[1:], row[:len(row)-1])
	row[0] = blk
	return victim, true
}

// Remove deletes blk from its set, preserving the order of the remaining
// entries, and reports whether it was resident. Exclusive hierarchies use
// it to pull a block out of the victim level on promotion.
func (b *Bank) Remove(blk int64) bool {
	set := b.setOf(blk)
	row := b.order[set]
	for i, v := range row {
		if v == blk {
			b.order[set] = append(row[:i], row[i+1:]...)
			return true
		}
	}
	return false
}

// Len returns the number of resident blocks.
func (b *Bank) Len() int64 {
	var n int64
	for _, row := range b.order {
		n += int64(len(row))
	}
	return n
}
