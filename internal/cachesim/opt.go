package cachesim

import "container/heap"

// This file adds offline-optimal (Belady/MIN) replacement analysis. The
// paper's model is an ideal cache; the simulator's default is LRU, which
// is O(1)-competitive with doubled capacity (Sleator–Tarjan). Capturing a
// trace and replaying it under MIN quantifies how much that substitution
// costs on real schedules (experiment E15).

// Trace is a recorded sequence of block accesses.
type Trace struct {
	blocks []int64
}

// Len returns the number of recorded accesses.
func (t *Trace) Len() int { return len(t.blocks) }

// StartTrace begins recording block accesses on the cache. Any previous
// StartTrace recording is discarded. It is implemented over the cache's
// single observer tap; starting a trace while a SetObserver callback is
// installed would silently steal that callback's access stream, so it
// panics instead.
func (c *Cache) StartTrace() {
	if c.observer != nil && c.traceRec == nil {
		panic("cachesim: StartTrace while a SetObserver callback is installed")
	}
	t := &Trace{}
	c.traceRec = t
	c.observer = func(base, n int64) {
		for end := base + n; base < end; base++ {
			t.blocks = append(t.blocks, base)
		}
	}
}

// StopTrace ends recording, removes the recording observer, and returns
// the captured trace (nil if recording was never started).
func (c *Cache) StopTrace() *Trace {
	t := c.traceRec
	if t != nil {
		c.traceRec = nil
		c.observer = nil
	}
	return t
}

// SimulateOPT replays a trace under Belady's offline-optimal (MIN)
// replacement with the given number of cache lines and returns the
// statistics. Writebacks are not modelled (MIN is defined on transfers).
func SimulateOPT(t *Trace, lines int64) Stats {
	var stats Stats
	if t == nil || lines <= 0 {
		return stats
	}
	n := len(t.blocks)
	// next[i] = index of the next access to the same block after i, or n.
	next := make([]int, n)
	last := make(map[int64]int, 1024)
	for i := n - 1; i >= 0; i-- {
		if j, ok := last[t.blocks[i]]; ok {
			next[i] = j
		} else {
			next[i] = n
		}
		last[t.blocks[i]] = i
	}
	// Resident set: block -> current next-use; eviction takes the max
	// next-use via a lazy max-heap of (nextUse, block).
	resident := make(map[int64]int, lines)
	h := &optHeap{}
	seen := make(map[int64]struct{}, 1024)
	for i, blk := range t.blocks {
		stats.Accesses++
		if _, ok := resident[blk]; ok {
			stats.Hits++
			resident[blk] = next[i]
			heap.Push(h, optEntry{use: next[i], blk: blk})
			continue
		}
		stats.Misses++
		if _, ok := seen[blk]; !ok {
			seen[blk] = struct{}{}
			stats.Compulsory++
		}
		if int64(len(resident)) == lines {
			// Evict the resident block with the farthest next use; pop
			// stale heap entries lazily.
			for {
				top := heap.Pop(h).(optEntry)
				use, ok := resident[top.blk]
				if ok && use == top.use {
					delete(resident, top.blk)
					stats.Evictions++
					break
				}
			}
		}
		resident[blk] = next[i]
		heap.Push(h, optEntry{use: next[i], blk: blk})
	}
	return stats
}

type optEntry struct {
	use int
	blk int64
}

// optHeap is a max-heap on next-use index.
type optHeap []optEntry

func (h optHeap) Len() int           { return len(h) }
func (h optHeap) Less(i, j int) bool { return h[i].use > h[j].use }
func (h optHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *optHeap) Push(x any)        { *h = append(*h, x.(optEntry)) }
func (h *optHeap) Pop() any {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}
