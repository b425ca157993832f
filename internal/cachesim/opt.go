package cachesim

import "container/heap"

// This file adds offline-optimal (Belady/MIN) replacement analysis. The
// paper's model is an ideal cache; the simulator's default is LRU, which
// is O(1)-competitive with doubled capacity (Sleator–Tarjan). Collecting a
// window's block stream through the cache's tap (SetObserver) and
// replaying it under MIN quantifies how much that substitution costs on
// real schedules (experiment E15).

// SimulateOPT replays a block access sequence under Belady's
// offline-optimal (MIN) replacement with the given number of cache lines
// and returns the statistics.
func SimulateOPT(blocks []int64, lines int64) Stats {
	var stats Stats
	if lines <= 0 {
		return stats
	}
	n := len(blocks)
	// next[i] = index of the next access to the same block after i, or n.
	next := make([]int, n)
	last := make(map[int64]int, 1024)
	for i := n - 1; i >= 0; i-- {
		if j, ok := last[blocks[i]]; ok {
			next[i] = j
		} else {
			next[i] = n
		}
		last[blocks[i]] = i
	}
	// Resident set: block -> current next-use; eviction takes the max
	// next-use via a lazy max-heap of (nextUse, block).
	resident := make(map[int64]int, lines)
	h := &optHeap{}
	for i, blk := range blocks {
		stats.Accesses++
		if _, ok := resident[blk]; ok {
			stats.Hits++
			resident[blk] = next[i]
			heap.Push(h, optEntry{use: next[i], blk: blk})
			continue
		}
		stats.Misses++
		if int64(len(resident)) == lines {
			// Evict the resident block with the farthest next use; pop
			// stale heap entries lazily.
			for {
				top := heap.Pop(h).(optEntry)
				use, ok := resident[top.blk]
				if ok && use == top.use {
					delete(resident, top.blk)
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
