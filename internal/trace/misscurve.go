package trace

// MissCurve is the result of reuse-distance profiling: the exact number of
// fully-associative LRU misses the recorded (windowed) access stream
// incurs, as a function of cache capacity — every capacity at once, from
// one pass over the trace.
type MissCurve struct {
	// Accesses is the number of counted (in-window) block accesses.
	Accesses int64
	// Cold is the number of counted first-ever accesses; these miss at
	// every capacity.
	Cold int64
	// suffix[d] counts in-window accesses at finite stack depth >= d
	// (1-based; suffix[len-1] == 0).
	suffix []int64
}

// Misses returns the exact miss count for a fully-associative LRU cache of
// the given number of lines (blocks). Capacity 0 misses on every access.
func (c *MissCurve) Misses(lines int64) int64 {
	if lines < 0 {
		lines = 0
	}
	// An access at depth d misses iff d > lines; cold accesses always miss.
	i := lines + 1
	if i >= int64(len(c.suffix)) {
		return c.Cold
	}
	return c.Cold + c.suffix[i]
}

// MissesAtCapacity returns the miss count for a cache of capacity words
// organised in blocks of block words (capacity/block lines), matching
// cachesim.Config{Capacity: capacity, Block: block} with Ways == 0.
func (c *MissCurve) MissesAtCapacity(capacity, block int64) int64 {
	if block <= 0 {
		return c.Accesses
	}
	return c.Misses(capacity / block)
}

// MissesPerItem divides the miss count at the given capacity by an item
// count (typically input items), the unit the paper's bounds are stated in.
func (c *MissCurve) MissesPerItem(capacity, block, items int64) float64 {
	if items <= 0 {
		return 0
	}
	return float64(c.MissesAtCapacity(capacity, block)) / float64(items)
}

// SaturationLines returns the smallest line count at which only cold
// misses remain — i.e. the trace's LRU working set in blocks. Every larger
// cache performs identically.
func (c *MissCurve) SaturationLines() int64 {
	if len(c.suffix) < 2 {
		return 0
	}
	return int64(len(c.suffix)) - 2
}

// DefaultCapacityGrid is the capacity grid (in words) a curve is reported
// at when the caller names none: powers of two in whole blocks, from one
// block to just past a working set of workingSetLines blocks (see
// SaturationLines). The CLI and the daemon share it.
func DefaultCapacityGrid(block, workingSetLines int64) []int64 {
	maxWords := workingSetLines * block
	var caps []int64
	for c := block; ; c *= 2 {
		caps = append(caps, c)
		if c >= 2*maxWords {
			break
		}
	}
	return caps
}
