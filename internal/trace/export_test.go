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
	b := newBoundedStacks(1, ways)
	return func(slot int32) int { return b.touch(0, slot) }
}
