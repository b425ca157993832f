package trace

import (
	"fmt"
	"math/bits"
	"slices"
)

// OrgLanes is up to 64 independent access streams profiled under one
// OrgSpec list — the lanes — fed together: Touch(blk, mask) hands the
// access to every lane whose bit is set in mask. Each lane's curves are
// exactly those of an OrgProfilers fed that lane's stream alone; what the
// lanes share is the work of an access that does not depend on the lane.
// The block's slot is looked up once, and each family's set index is
// computed once. A row family keeps every lane's rows of one set side by
// side — the arena is laid out [set][lane][bound] — so the lanes an access
// reaches touch neighbouring rows. Each lane keeps its own marker lists and
// FIFO replicas.
//
// One blockTable serves every lane, and its seen bits count first-ever
// accesses for all of them at once. That is exact only when a block's
// first access reaches every lane, so a first sight under a partial mask
// panics, naming a lane it left out. The hierarchy profilers' lanes — one
// per L1 design point, fed that point's misses — meet this: a block's
// first access misses at every L1 point.
//
// Lanes count only: they report no per-access verdicts, never fold, and
// take only request-bounded specs (every spec lists its LRUWays).
type OrgLanes struct {
	n        int
	all      uint64 // the mask of every lane
	specs    []OrgSpec
	familyOf []int
	rows     []laneRows
	markers  []laneMarkers
	banks    []fifoBank // per lane; nil when no FIFO point needs a replica
	replica  map[[2]int64]int
	table    blockTable
	accesses []int64 // per lane: counted accesses
	// warm logs each lane's warm-up uses (StartWarmup); nil outside the
	// warm-up.
	warm []useLog
}

// laneRows is a row family of every lane: one bound-entry move-to-front row
// per (set, lane), a set's rows side by side, and a depth histogram per
// lane, laid out like boundedStacks' one but for depth 1. A reuse at depth
// 1, the commonest at L2, leaves the row as it is, so it is read off heads
// — every row's first entry, [set][lane], a small fraction of the rows —
// and not counted: the lane's accesses less its other depths are its
// depth-1 count. The commonest touch thus reads one small array and stores
// nothing.
type laneRows struct {
	idx    setIndex
	ways   []int64
	bound  int
	stride int     // lanes*bound: one set's rows
	rows   []int32 // sets*stride entries; noSlot = empty
	heads  []int32 // sets*lanes: each row's first entry
	hist   []int64 // lane*(bound+1) + d; d == 1 stays zero
}

// laneMarkers is a marker family of every lane: the set index, computed
// once per access, and each lane's own marker lists.
type laneMarkers struct {
	idx   setIndex
	lanes []markerStacks
}

// NewOrgLanes validates the specs and builds n lanes over them, 1 <= n <=
// 64.
func NewOrgLanes(specs []OrgSpec, n int) (*OrgLanes, error) {
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("trace: lanes take 1 to 64 streams, got %d", n)
	}
	fams, familyOf, err := orgFamilies(specs)
	if err != nil {
		return nil, err
	}
	l := &OrgLanes{n: n, all: 1<<n - 1, specs: specs, familyOf: familyOf, replica: make(map[[2]int64]int), // 1<<64 wraps to 0
		accesses: make([]int64, n)}
	for _, f := range fams {
		ways := uniqueWays(f.ways)
		switch f.kind() {
		case 0:
			bound := int(ways[len(ways)-1])
			l.rows = append(l.rows, laneRows{idx: newSetIndex(f.sets), ways: ways, bound: bound, stride: n * bound,
				rows: slices.Repeat([]int32{noSlot}, int(f.sets)*n*bound), heads: slices.Repeat([]int32{noSlot}, int(f.sets)*n),
				hist: make([]int64, n*(bound+1))})
		case 1:
			m := laneMarkers{idx: newSetIndex(f.sets), lanes: make([]markerStacks, n)}
			for i := range m.lanes {
				m.lanes[i] = *newMarkerStacks(f.sets, ways)
			}
			l.markers = append(l.markers, m)
		default:
			return nil, fmt.Errorf("trace: lanes take request-bounded specs; a fully-associative spec must list its LRUWays")
		}
	}
	replicas(fams, func(sets, ways int64) {
		if l.banks == nil {
			l.banks = make([]fifoBank, n)
		}
		for i := range l.banks {
			l.replica[[2]int64{sets, ways}] = l.banks[i].addReplica(sets, ways)
		}
	})
	return l, nil
}

// Touch feeds the access to blk to the lanes in mask.
func (l *OrgLanes) Touch(blk int64, mask uint64) {
	if mask == 0 {
		return
	}
	if l.warm != nil {
		l.warmTouch(blk, mask)
		return
	}
	cold := l.table.cold
	slot := l.table.slot(blk)
	if l.table.cold != cold && mask != l.all {
		l.partialFirstSight(blk, mask)
	}
	l.touch(blk, slot, mask)
}

// partialFirstSight is the guard behind the shared blockTable.
func (l *OrgLanes) partialFirstSight(blk int64, mask uint64) {
	panic(fmt.Sprintf("trace: block %d first seen by lanes %#x: lane %d missed its first access", blk, mask, bits.TrailingZeros64(l.all&^mask)))
}

// touch feeds the block in slot to the lanes in mask: one set index per
// family, then each lane's rows, marker lists and replicas.
func (l *OrgLanes) touch(blk int64, slot int32, mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		l.accesses[bits.TrailingZeros64(m)]++
	}
	for i := range l.rows {
		f := &l.rows[i]
		set := int(f.idx.set(blk))
		heads := f.heads[set*l.n:][:l.n]
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			if heads[lane] != slot {
				heads[lane] = slot
				row := f.rows[set*f.stride+lane*f.bound:][:f.bound]
				f.hist[lane*(f.bound+1)+moveToFront(row, slot)]++
			}
		}
	}
	for i := range l.markers {
		f := &l.markers[i]
		set := f.idx.set(blk)
		for m := mask; m != 0; m &= m - 1 {
			f.lanes[bits.TrailingZeros64(m)].touch(set, slot)
		}
	}
	if l.banks != nil {
		for m := mask; m != 0; m &= m - 1 {
			l.banks[bits.TrailingZeros64(m)].touch(blk, slot)
		}
	}
}

// StartWarmup says the accesses until the next ResetCounts only warm the
// lanes: each lane logs its uses, as OrgProfilers.StartWarmup does, and
// ResetCounts replays each lane's log into that lane alone. The replicas
// stay live.
func (l *OrgLanes) StartWarmup() { l.warm = make([]useLog, l.n) }

// warmTouch is Touch during a warm-up.
func (l *OrgLanes) warmTouch(blk int64, mask uint64) {
	for m := mask; m != 0; m &= m - 1 {
		l.warm[bits.TrailingZeros64(m)].use(blk)
	}
	if l.banks != nil {
		slot := l.table.slot(blk)
		for m := mask; m != 0; m &= m - 1 {
			l.banks[bits.TrailingZeros64(m)].touch(blk, slot)
		}
	}
}

// endWarmup rebuilds each lane's stacks from its own log; the replicas saw
// the warm-up live and sit the rebuild out. The replay reaches one lane at
// a time, so it bypasses Touch's first-sight guard.
func (l *OrgLanes) endWarmup() {
	warm, banks := l.warm, l.banks
	l.warm, l.banks = nil, nil
	for lane := range warm {
		u := &warm[lane]
		for _, e := range u.byLastUse() {
			blk := u.blks[e]
			l.touch(blk, l.table.slot(blk), 1<<lane)
		}
	}
	l.banks = banks
}

// ResetCounts starts the measured window: histograms and miss counters
// reset, warm stack state kept — rebuilt first, after StartWarmup.
func (l *OrgLanes) ResetCounts() {
	if l.warm != nil {
		l.endWarmup()
	}
	clear(l.accesses)
	for i := range l.rows {
		clear(l.rows[i].hist)
	}
	for i := range l.markers {
		for j := range l.markers[i].lanes {
			l.markers[i].lanes[j].reset()
		}
	}
	for i := range l.banks {
		l.banks[i].resetCounts()
	}
	l.table.cold = 0
}

// Curves extracts one lane's profiles, in spec order, exactly as the
// OrgProfilers of its stream would report them.
func (l *OrgLanes) Curves(lane int) []*OrgCurves {
	lru := make([]*AssocCurve, 0, len(l.rows)+len(l.markers))
	for i := range l.rows {
		f := &l.rows[i]
		hist := slices.Clone(f.hist[lane*(f.bound+1):][:f.bound+1])
		hist[1] = l.accesses[lane]
		for d, n := range hist {
			if d != 1 {
				hist[1] -= n
			}
		}
		b := boundedStacks{idx: f.idx, ways: f.ways, bound: f.bound, depthCounts: depthCounts{hist: hist}}
		lru = append(lru, b.curve(l.table.cold))
	}
	for i := range l.markers {
		lru = append(lru, l.markers[i].lanes[lane].curve(l.table.cold))
	}
	var bank *fifoBank
	if l.banks != nil {
		bank = &l.banks[lane]
	}
	return orgCurves(l.specs, l.familyOf, lru, bank, l.replica)
}
