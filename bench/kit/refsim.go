package kit

// RefSim is the benchmark's own set-associative cache simulator: the
// naive algorithm, written from the definition and sharing no code with
// the engine, that the traced run replays the recorded trace through to
// check every grid point the one-pass profilers report. Each set is a
// slice searched linearly; LRU moves a hit to the front, FIFO leaves it
// in place; both insert at the front and drop the last.
type RefSim struct {
	sets   [][]int64
	ways   int
	fifo   bool
	Misses int64
}

// NewRefSim builds a cache of sets x ways lines.
func NewRefSim(sets, ways int64, fifo bool) *RefSim {
	return &RefSim{sets: make([][]int64, sets), ways: int(ways), fifo: fifo}
}

// Access touches one block; the set index is blk mod sets.
func (r *RefSim) Access(blk int64) {
	si := blk % int64(len(r.sets))
	set := r.sets[si]
	for i, b := range set {
		if b != blk {
			continue
		}
		if !r.fifo {
			copy(set[1:i+1], set[:i])
			set[0] = blk
		}
		return
	}
	r.Misses++
	if len(set) < r.ways {
		set = append(set, 0)
	}
	copy(set[1:], set)
	set[0] = blk
	r.sets[si] = set
}
