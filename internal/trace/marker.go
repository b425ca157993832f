package trace

// Stack simulation with markers (Kim, Hill & Wood, "Implementing Stack
// Simulation for Highly-Associative Memories", SIGMETRICS 1991). A request
// that evaluates an LRU family at a fixed list of way counts w_1 < … < w_K
// needs no access's exact stack depth, only its zone: the z with
// w_{z-1} < depth <= w_z (w_0 = 0), or none past w_K. So each set keeps its
// w_K most recent blocks as a doubly linked recency list, every listed
// block knows its zone, and one marker per way count points at the block
// at depth w_z. An access found in zone z moves to the front, and each of
// the z-1 markers above it moves up one block, which crosses into the next
// zone; an access not found moves all K markers, and the block at depth w_K
// falls off the list. A reuse inside w_1 — most L2 reuses on the
// schedules' traces — costs O(1), and any access at most O(K), however
// deep w_K is.

// markerStacks is the marker form of a request-bounded family: all sets'
// recency lists in one node pool, with one shared zone histogram. Lists
// hold blocks by their blockTable slot, like boundedStacks' rows, and a
// node is allocated only when its set's list grows, so memory follows the
// footprint, not sets × w_K.
type markerStacks struct {
	ways  []int64 // the way counts, ascending and distinct
	nodes []markerNode
	sets  []markerSet
	// marks holds len(ways) markers per set: marks[set*K+z-1] is the node at
	// depth ways[z-1], once the set's list is that deep (markerSet.full).
	marks []int32
	dense []int32 // slot s >= 0 -> its node+1; 0: not on a list
	side  []int32 // slot s < 0 -> side[^s], the same
	// hist[z], 1 <= z <= K: counted accesses found in zone z; hist[0]: those
	// not found (cold included). cold stays zero: the FIFO bank's ever-seen
	// bits count first-ever accesses.
	depthCounts
}

type markerNode struct {
	slot       int32
	prev, next int32 // -1 past either end
	zone       int32 // 1-based
}

// markerSet is one set's recency list.
type markerSet struct {
	head, last int32 // -1 when the list is empty
	n          int32 // blocks on the list, at most ways[K-1]
	full       int32 // markers placed: the zones the list reaches the bottom of
}

func newMarkerStacks(sets int64, ways []int64) *markerStacks {
	m := &markerStacks{ways: ways, sets: make([]markerSet, sets), marks: make([]int32, sets*int64(len(ways))),
		depthCounts: depthCounts{hist: make([]int64, len(ways)+1)}}
	for i := range m.sets {
		m.sets[i] = markerSet{head: -1, last: -1}
	}
	return m
}

// touch processes one access to the block in slot and returns the deepest
// way count of the zone it was found in — exactly the listed way counts
// at or past that one hit — or 0 when it is past the last (or cold).
func (m *markerStacks) touch(set int64, slot int32) int {
	s := &m.sets[set]
	k := len(m.ways)
	marks := m.marks[int(set)*k:][:k]
	at := m.entry(slot)
	x := *at - 1
	if x < 0 {
		m.hist[0]++
		*at = m.insert(s, marks, slot) + 1
		return 0
	}
	z := m.nodes[x].zone
	m.hist[z]++
	if x == s.head {
		return int(m.ways[0])
	}
	for i := range marks[:z-1] {
		m.pass(marks, i, x)
	}
	if marks[z-1] == x {
		marks[z-1] = m.nodes[x].prev // x is not the head, so this is a block
	}
	m.unlink(s, x)
	m.pushFront(s, x)
	m.nodes[x].zone = 1
	return int(m.ways[z-1])
}

// insert puts a block that is not on its set's list at the front, every
// placed marker passing one block down; on a full list the block at the
// deepest way count falls off and its node takes the new block. It returns
// the block's node.
func (m *markerStacks) insert(s *markerSet, marks []int32, slot int32) int32 {
	full := int(s.full)
	x := int32(len(m.nodes))
	if full == len(marks) {
		x = marks[full-1] // == s.last
	}
	for i := range marks[:full] {
		m.pass(marks, i, x)
	}
	if full == len(marks) {
		*m.entry(m.nodes[x].slot) = 0
		m.unlink(s, x)
	} else {
		m.nodes = append(m.nodes, markerNode{})
		s.n++
	}
	m.nodes[x].slot, m.nodes[x].zone = slot, 1
	m.pushFront(s, x)
	if full < len(marks) && int64(s.n) == m.ways[full] {
		marks[full] = s.last
		s.full++
	}
	return x
}

// pass moves marker i up one block ahead of x's move to the front: the block
// it marked crosses into the next zone, and the one above it — x itself
// when the marker was at depth 1 — becomes the marked one.
func (m *markerStacks) pass(marks []int32, i int, x int32) {
	t := &m.nodes[marks[i]]
	t.zone++
	if marks[i] = t.prev; marks[i] < 0 {
		marks[i] = x
	}
}

func (m *markerStacks) unlink(s *markerSet, x int32) {
	p, n := m.nodes[x].prev, m.nodes[x].next
	if p >= 0 {
		m.nodes[p].next = n
	} else {
		s.head = n
	}
	if n >= 0 {
		m.nodes[n].prev = p
	} else {
		s.last = p
	}
}

func (m *markerStacks) pushFront(s *markerSet, x int32) {
	m.nodes[x].prev, m.nodes[x].next = -1, s.head
	if s.head >= 0 {
		m.nodes[s.head].prev = x
	} else {
		s.last = x
	}
	s.head = x
}

// entry returns the slot's node+1 cell, growing the tables on first sight.
func (m *markerStacks) entry(slot int32) *int32 {
	if slot >= 0 {
		if int(slot) >= len(m.dense) {
			m.dense = growCells(m.dense, int(slot)+1)
		}
		return &m.dense[slot]
	}
	i := int(^slot)
	if i >= len(m.side) {
		m.side = growCells(m.side, i+1)
	}
	return &m.side[i]
}

// growCells returns cells grown, zero-filled and at least doubled, to hold
// need entries.
func growCells(cells []int32, need int) []int32 {
	n := max(2*len(cells), 1024)
	for n < need {
		n *= 2
	}
	grown := make([]int32, n)
	copy(grown, cells)
	return grown
}

// curve answers the family's way counts from the zone histogram: an access
// hits at ways[z-1] exactly when it was found in a zone at or above z.
func (m *markerStacks) curve(sets, cold int64) *AssocCurve {
	var total int64
	for _, n := range m.hist {
		total += n
	}
	misses := make([]int64, len(m.ways))
	left := total
	for z := range misses {
		left -= m.hist[z+1]
		misses[z] = left
	}
	return &AssocCurve{Sets: sets, Accesses: total, Cold: cold, Ways: m.ways, misses: misses}
}
