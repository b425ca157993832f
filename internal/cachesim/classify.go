package cachesim

import "sort"

// This file adds miss classification: attributing each miss to the kind
// of memory object whose block missed. The paper's introduction names two
// controllable miss sources — module state reloads and channel items
// spilled between producer and consumer — and experiment E16 uses these
// classes to show how each scheduler trades one for the other.

// Class identifies the kind of memory object behind an address.
type Class uint8

// Memory object classes.
const (
	ClassUnknown Class = iota
	ClassState
	ClassCrossBuffer
	ClassInternalBuffer
	numClasses
)

// String names the class.
func (cl Class) String() string {
	switch cl {
	case ClassState:
		return "state"
	case ClassCrossBuffer:
		return "cross-buffer"
	case ClassInternalBuffer:
		return "internal-buffer"
	default:
		return "unknown"
	}
}

// ClassStats holds per-class miss counts.
type ClassStats [numClasses]int64

// Get returns the miss count for a class.
func (s ClassStats) Get(cl Class) int64 { return s[cl] }

// classRange maps a block range to a class.
type classRange struct {
	firstBlock int64 // inclusive
	lastBlock  int64 // inclusive
	class      Class
}

// ClassifyRange registers the word range [base, base+size) as belonging to
// cl. Ranges must not overlap at block granularity with a different class;
// later registrations win on exact duplicates. Call before accessing.
func (c *Cache) ClassifyRange(base, size int64, cl Class) {
	if size <= 0 {
		return
	}
	c.classes = append(c.classes, classRange{
		firstBlock: base / c.cfg.Block,
		lastBlock:  (base + size - 1) / c.cfg.Block,
		class:      cl,
	})
	sort.Slice(c.classes, func(i, j int) bool {
		return c.classes[i].firstBlock < c.classes[j].firstBlock
	})
}

// ClassMisses returns per-class miss counts accumulated since the last
// ResetStats.
func (c *Cache) ClassMisses() ClassStats { return c.classMisses }

// classify returns the class of a block via binary search over the
// registered ranges.
func (c *Cache) classify(blk int64) Class {
	lo, hi := 0, len(c.classes)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		r := c.classes[mid]
		switch {
		case blk < r.firstBlock:
			hi = mid - 1
		case blk > r.lastBlock:
			lo = mid + 1
		default:
			return r.class
		}
	}
	return ClassUnknown
}
