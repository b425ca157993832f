package trace

// BoundedTouch builds one request-bounded family over a single set — flat
// move-to-front rows, or marker lists when markers is set — answering the
// given way counts, and returns its touch, so that the crossover benchmark
// in the external test package can time the two on the same stream.
func BoundedTouch(markers bool, ways []int64) func(slot int32) int {
	ways = uniqueWays(ways)
	if markers {
		m := newMarkerStacks(1, ways)
		return func(slot int32) int { return m.touch(0, slot) }
	}
	f := newLaneRows(1, ways, 1)
	return func(slot int32) int { return f.touch(0, slot, 0) }
}

// FIFOBankReplay builds the fifoBank an OrgProfilers over specs holds — a
// replica per FIFO way count of more than one way — names blocks' slots
// once, and returns a replay that touches the bank alone with every block
// in order, and the number of replica insertions made so far, so that
// BenchmarkFIFOBank in the external test package can time the bank without
// the families beside it.
func FIFOBankReplay(specs []OrgSpec, blocks []int64) (replay func(), inserts func() int64) {
	var bank fifoBank
	for _, s := range specs {
		for _, w := range uniqueWays(s.FIFOWays) {
			if w > 1 {
				bank.addReplica(s.Sets, w)
			}
		}
	}
	var table blockTable
	slots := make([]int32, len(blocks))
	for i, blk := range blocks {
		slots[i] = table.slot(blk)
	}
	replay = func() {
		for i, blk := range blocks {
			bank.touch(blk, slots[i])
		}
	}
	inserts = func() int64 {
		var n int64
		for _, m := range bank.misses {
			n += m
		}
		return n
	}
	return replay, inserts
}
