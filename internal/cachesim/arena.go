package cachesim

import "fmt"

// Region is a contiguous range of the simulated word address space.
type Region struct {
	Base int64 // first word address
	Size int64 // length in words
}

// End returns the first address past the region.
func (r Region) End() int64 { return r.Base + r.Size }

// String renders the region as [base, end).
func (r Region) String() string { return fmt.Sprintf("[%d,%d)", r.Base, r.End()) }

// Arena hands out non-overlapping regions of the simulated address space.
// The zero value is ready to use and allocates from address 0.
type Arena struct {
	next int64
}

// Alloc reserves size words aligned to align (align <= 0 means 1) and
// returns the region. A zero or negative size yields an empty region at the
// current cursor.
func (a *Arena) Alloc(size, align int64) Region {
	if align > 1 {
		if rem := a.next % align; rem != 0 {
			a.next += align - rem
		}
	}
	if size < 0 {
		size = 0
	}
	r := Region{Base: a.next, Size: size}
	a.next += size
	return r
}

// AllocBlockAligned reserves size words aligned to the block size b and, if
// padToBlock is set, rounds the region size up to a whole number of blocks
// so that no two allocations share a block. Distinct-object block sharing
// would let unrelated state piggyback on one transfer, which the paper's
// model excludes for module state and large buffers.
func (a *Arena) AllocBlockAligned(size, b int64, padToBlock bool) Region {
	r := a.Alloc(size, b)
	if padToBlock && b > 1 {
		if rem := r.Size % b; rem != 0 {
			pad := b - rem
			a.next += pad
		}
	}
	return r
}
