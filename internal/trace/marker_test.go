package trace

import (
	"math/rand"
	"slices"
	"testing"
)

// TestMarkerStacksMatchNaiveZones: on random slot streams over one to
// three sets (dense and negative slots, footprints below and far past the
// deepest way count) and random way lists (one to five way counts, 1 to 40
// deep, depth 1 included), every touch reports the zone a naive per-set
// move-to-front stack finds the block in — 0 past the last or cold — and
// the node pool never outgrows sets × the deepest.
func TestMarkerStacksMatchNaiveZones(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 300; trial++ {
		sets := int64(1 + rng.Intn(3))
		var list []int64
		for k := 1 + rng.Intn(5); k > 0; k-- {
			list = append(list, 1+rng.Int63n(40))
		}
		ways := uniqueWays(list)
		deepest := ways[len(ways)-1]
		m := newMarkerStacks(sets, ways)
		naive := make([][]int32, sets)
		footprint := 1 + rng.Intn(int(3*sets*deepest))
		for i := 0; i < 3000; i++ {
			id := rng.Intn(footprint)
			set, slot := int64(id)%sets, int32(id)
			if id%2 == 1 {
				slot = ^slot
			}
			row := naive[set]
			d := int64(slices.Index(row, slot) + 1) // 0: never seen
			if d > 0 {
				row = slices.Delete(row, int(d-1), int(d))
			}
			naive[set] = slices.Insert(row, 0, slot)
			want := 0
			if i := slices.IndexFunc(ways, func(w int64) bool { return d > 0 && d <= w }); i >= 0 {
				want = i + 1
			}
			if got := m.touch(set, slot); got != want {
				t.Fatalf("trial %d ways %v sets %d, access %d (slot %d, naive depth %d): marker lists report %d, want %d",
					trial, ways, sets, i, slot, d, got, want)
			}
		}
		if int64(len(m.nodes)) > sets*deepest {
			t.Fatalf("trial %d: %d nodes for %d sets of %d ways", trial, len(m.nodes), sets, deepest)
		}
	}
}
