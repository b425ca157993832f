package trace

import (
	"fmt"
	"math/bits"
)

// OrgLanes is up to 64 independent access streams profiled under one
// OrgSpec list — the lanes — fed together: Touch(blk, mask) hands the
// access to every lane whose bit is set in mask. Each lane's curves are
// exactly those of an OrgProfilers fed that lane's stream alone; what the
// lanes share is the orgStore and the work of an access that does not
// depend on the lane: the block's slot is looked up once, and each family's
// set index is computed once.
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
	orgStore
	all uint64 // the mask of every lane
	// warm logs each lane's warm-up uses (StartWarmup); nil outside the
	// warm-up.
	warm []useLog
}

// NewOrgLanes validates the specs and builds n lanes over them, 1 <= n <=
// 64.
func NewOrgLanes(specs []OrgSpec, n int) (*OrgLanes, error) {
	if n < 1 || n > 64 {
		return nil, fmt.Errorf("trace: lanes take 1 to 64 streams, got %d", n)
	}
	s, unbounded, err := newOrgStore(specs, n)
	if err != nil {
		return nil, err
	}
	if unbounded {
		return nil, fmt.Errorf("trace: lanes take request-bounded specs; a fully-associative spec must list its LRUWays")
	}
	return &OrgLanes{orgStore: s, all: 1<<n - 1}, nil // 1<<64 wraps to 0
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
		base := int(f.idx.set(blk)) * f.lanes
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros64(m)
			f.touch(base+lane, slot, lane)
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
func (l *OrgLanes) StartWarmup() { l.warm = make([]useLog, len(l.accesses)) }

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
	l.resetCounts()
}

// Curves extracts one lane's profiles, in spec order, exactly as the
// OrgProfilers of its stream would report them.
func (l *OrgLanes) Curves(lane int) []*OrgCurves { return l.curves(lane, nil) }
