package trace

import "slices"

// orgStore is the request-bounded families of one spec list for n
// independent access streams, the lanes: what OrgProfilers (one lane) and
// OrgLanes (up to 64) both hold. Families are numbered rows, then marker
// lists. Each family's set index is shared by its lanes; a row family keeps
// every lane's rows side by side (laneRows), a marker family each lane's own
// lists, and each lane has its own FIFO replicas. One blockTable names the
// blocks and counts first-ever accesses for every lane; a caller that feeds
// a block's first access to only some lanes must not rely on it.
type orgStore struct {
	specs    []OrgSpec
	familyOf []int // spec -> family
	rows     []laneRows
	markers  []laneMarkers
	banks    []fifoBank       // per lane; nil when no FIFO point needs a replica
	replica  map[[2]int64]int // (sets, FIFO way count > 1) -> replica in each bank
	table    blockTable       // slots and first-ever accesses
	accesses []int64          // per lane: counted accesses, which the rows' depth-1 count is derived from
}

// laneMarkers is a marker family of every lane: the set index, computed
// once per access, and each lane's own marker lists.
type laneMarkers struct {
	idx   setIndex
	lanes []markerStacks
}

// newOrgStore validates the specs and builds their bounded families for n
// lanes. unbounded reports that the last family is a fully-associative one
// that lists no way counts: the store holds nothing for it, and only
// OrgProfilers, which keeps a timeline Profiler for it, takes such specs.
func newOrgStore(specs []OrgSpec, n int) (s orgStore, unbounded bool, err error) {
	fams, familyOf, err := orgFamilies(specs)
	if err != nil {
		return s, false, err
	}
	s = orgStore{specs: specs, familyOf: familyOf, replica: make(map[[2]int64]int), accesses: make([]int64, n)}
	for _, f := range fams {
		ways := uniqueWays(f.ways)
		switch f.kind() {
		case 0:
			s.rows = append(s.rows, newLaneRows(f.sets, ways, n))
		case 1:
			m := laneMarkers{idx: newSetIndex(f.sets), lanes: make([]markerStacks, n)}
			for i := range m.lanes {
				m.lanes[i] = *newMarkerStacks(f.sets, ways)
			}
			s.markers = append(s.markers, m)
		default:
			unbounded = true
		}
		for _, w := range uniqueWays(f.fifo) {
			if w == 1 { // a one-way FIFO point is the one-way LRU point
				continue
			}
			if s.banks == nil {
				s.banks = make([]fifoBank, n)
			}
			for i := range s.banks {
				s.replica[[2]int64{f.sets, w}] = s.banks[i].addReplica(f.sets, w)
			}
		}
	}
	return s, unbounded, nil
}

// resetCounts zeroes every lane's histograms, access and miss counts and the
// cold count, keeping the stacks and replicas.
func (s *orgStore) resetCounts() {
	clear(s.accesses)
	for i := range s.rows {
		clear(s.rows[i].hist)
	}
	for i := range s.markers {
		for j := range s.markers[i].lanes {
			s.markers[i].lanes[j].reset()
		}
	}
	for i := range s.banks {
		s.banks[i].resetCounts()
	}
	s.table.cold = 0
}

// curves extracts one lane's profiles, in spec order; full, when non-nil, is
// the unbounded family's curve. Specs of one family share its LRU curve; a
// FIFO curve reads its one-way point off that curve.
func (s *orgStore) curves(lane int, full *AssocCurve) []*OrgCurves {
	lru := make([]*AssocCurve, 0, len(s.rows)+len(s.markers)+1)
	for i := range s.rows {
		lru = append(lru, s.rows[i].curve(lane, s.accesses[lane], s.table.cold))
	}
	for i := range s.markers {
		lru = append(lru, s.markers[i].lanes[lane].curve(s.table.cold))
	}
	if full != nil {
		lru = append(lru, full)
	}
	out := make([]*OrgCurves, len(s.specs))
	for j, spec := range s.specs {
		fam := lru[s.familyOf[j]]
		out[j] = &OrgCurves{Spec: spec, LRU: fam}
		if len(spec.FIFOWays) == 0 {
			continue
		}
		fc := &FIFOCurve{Sets: spec.Sets, Accesses: fam.Accesses, Cold: fam.Cold, ways: uniqueWays(spec.FIFOWays)}
		fc.misses = make([]int64, len(fc.ways))
		for k, w := range fc.ways {
			if w == 1 {
				fc.misses[k] = fam.Misses(1)
			} else {
				fc.misses[k] = s.banks[lane].misses[s.replica[[2]int64{spec.Sets, w}]]
			}
		}
		out[j].FIFO = fc
	}
	return out
}

// bucket returns the histogram bucket of family fam that an LRU point of
// the given way count hits in or above: the way count itself on rows or the
// unbounded stack, which count exact depths, and its zone on marker lists.
func (s *orgStore) bucket(fam int, ways int64) int {
	if m := fam - len(s.rows); m >= 0 && m < len(s.markers) {
		z, _ := slices.BinarySearch(s.markers[m].lanes[0].ways, ways)
		return z + 1
	}
	return int(ways)
}
