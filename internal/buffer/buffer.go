// Package buffer implements the FIFO channel buffers of the streaming
// runtime. A FIFO owns a region of the simulated address space (one word
// per item slot) and issues address-accurate reads and writes against a
// cache simulator as items are pushed and popped, so that buffer traffic is
// charged to the cache exactly as the paper's model prescribes.
//
// A FIFO can optionally carry item values. Value mode is used by the
// correctness tests, which check that every scheduler computes the same
// output stream (SDF executions are deterministic); the experiment harness
// runs without values for speed.
package buffer

import (
	"errors"
	"fmt"

	"streamsched/internal/cachesim"
)

// Errors reported by FIFO operations.
var (
	ErrOverflow  = errors.New("buffer: push exceeds capacity")
	ErrUnderflow = errors.New("buffer: pop from empty buffer")
	ErrBadCap    = errors.New("buffer: capacity must be positive")
	ErrBadRegion = errors.New("buffer: region smaller than capacity")
)

// FIFO is a bounded ring buffer of unit-size items.
type FIFO struct {
	region   cachesim.Region
	capacity int64
	head     int64 // ring index of the oldest item
	count    int64 // items currently buffered

	vals []int64 // value storage, nil when values are disabled

	pushed    int64 // lifetime items pushed
	popped    int64 // lifetime items popped
	highWater int64 // max occupancy ever observed
}

// New creates a FIFO with the given item capacity backed by region. The
// region must hold at least capacity words. If withValues is set the FIFO
// stores item values; otherwise only occupancy is tracked.
func New(region cachesim.Region, capacity int64, withValues bool) (*FIFO, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrBadCap, capacity)
	}
	if region.Size < capacity {
		return nil, fmt.Errorf("%w: region %v, capacity %d", ErrBadRegion, region, capacity)
	}
	f := &FIFO{region: region, capacity: capacity}
	if withValues {
		f.vals = make([]int64, capacity)
	}
	return f, nil
}

// Len returns the current number of buffered items.
func (f *FIFO) Len() int64 { return f.count }

// Cap returns the capacity in items.
func (f *FIFO) Cap() int64 { return f.capacity }

// Space returns the remaining capacity in items.
func (f *FIFO) Space() int64 { return f.capacity - f.count }

// Pushed returns the lifetime count of items pushed.
func (f *FIFO) Pushed() int64 { return f.pushed }

// Popped returns the lifetime count of items popped.
func (f *FIFO) Popped() int64 { return f.popped }

// HighWater returns the maximum occupancy ever observed.
func (f *FIFO) HighWater() int64 { return f.highWater }

// Region returns the backing region.
func (f *FIFO) Region() cachesim.Region { return f.region }

// PushN appends n items, charging writes to cache (which may be nil for
// unaccounted operations). When the FIFO stores values, vals must have
// length n; otherwise vals is ignored and may be nil.
func (f *FIFO) PushN(cache *cachesim.Cache, n int64, vals []int64) error {
	if n <= 0 {
		if n == 0 {
			return nil
		}
		return fmt.Errorf("buffer: PushN with negative n %d", n)
	}
	if f.count+n > f.capacity {
		return fmt.Errorf("%w: have %d, pushing %d, cap %d", ErrOverflow, f.count, n, f.capacity)
	}
	if f.vals != nil && int64(len(vals)) != n {
		return fmt.Errorf("buffer: PushN values length %d != n %d", len(vals), n)
	}
	start := (f.head + f.count) % f.capacity
	f.touch(cache, start, n)
	if f.vals != nil {
		for i := int64(0); i < n; i++ {
			f.vals[(start+i)%f.capacity] = vals[i]
		}
	}
	f.count += n
	f.pushed += n
	if f.count > f.highWater {
		f.highWater = f.count
	}
	return nil
}

// PopN removes the n oldest items, charging reads to cache (which may be
// nil). When the FIFO stores values and dst is non-nil, the popped values
// are copied into dst (which must have length >= n).
func (f *FIFO) PopN(cache *cachesim.Cache, n int64, dst []int64) error {
	if n <= 0 {
		if n == 0 {
			return nil
		}
		return fmt.Errorf("buffer: PopN with negative n %d", n)
	}
	if f.count < n {
		return fmt.Errorf("%w: have %d, popping %d", ErrUnderflow, f.count, n)
	}
	if f.vals != nil && dst != nil && int64(len(dst)) < n {
		return fmt.Errorf("buffer: PopN dst length %d < n %d", len(dst), n)
	}
	f.touch(cache, f.head, n)
	if f.vals != nil && dst != nil {
		for i := int64(0); i < n; i++ {
			dst[i] = f.vals[(f.head+i)%f.capacity]
		}
	}
	f.head = (f.head + n) % f.capacity
	f.count -= n
	f.popped += n
	return nil
}

// Push appends a single item.
func (f *FIFO) Push(cache *cachesim.Cache, v int64) error {
	if f.vals != nil {
		var one [1]int64
		one[0] = v
		return f.PushN(cache, 1, one[:])
	}
	return f.PushN(cache, 1, nil)
}

// Pop removes and returns the oldest item (zero when values are disabled).
func (f *FIFO) Pop(cache *cachesim.Cache) (int64, error) {
	if f.vals != nil {
		var one [1]int64
		if err := f.PopN(cache, 1, one[:]); err != nil {
			return 0, err
		}
		return one[0], nil
	}
	return 0, f.PopN(cache, 1, nil)
}

// Skip counts laps whole trips around the ring — laps·Cap more items
// pushed and as many popped — without touching the cache or the ring, so
// occupancy, ring offset and contents stay as they are. A machine
// advanced by whole periods (exec.Machine.Advance) accounts for the items
// its channels carried that way; the caller keeps the counts within int64.
func (f *FIFO) Skip(laps int64) {
	f.pushed += laps * f.capacity
	f.popped += laps * f.capacity
}

// touch charges the ring positions [start, start+n) (mod capacity) to the
// cache as at most two contiguous ranges.
func (f *FIFO) touch(cache *cachesim.Cache, start, n int64) {
	if cache == nil {
		return
	}
	first := n
	if start+first > f.capacity {
		first = f.capacity - start
	}
	cache.Access(f.region.Base+start, first)
	if rest := n - first; rest > 0 {
		cache.Access(f.region.Base, rest)
	}
}

// String summarises the FIFO.
func (f *FIFO) String() string {
	return fmt.Sprintf("fifo(%d/%d at %v)", f.count, f.capacity, f.region)
}
