package trace

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSteadyDepthsMatchNaiveStack holds the D_b pass against its
// definition: on random periodic streams, per-set naive LRU stacks fed
// some lead-in and the period twice find each block's first use in the
// second period at exactly the depth steadyDepths derives from the use log
// of one period — for one set and several, power-of-two or not, over
// dense, negative and sparse ids, and whatever the lead-in left.
func TestSteadyDepthsMatchNaiveStack(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		footprint := int64(1 + rng.Intn(300))
		draw := func(n int) []int64 {
			out := make([]int64, n)
			for i := range out {
				if rng.Intn(3) == 0 && i > 0 {
					out[i] = out[rng.Intn(i)] // reuse inside the period
				} else {
					out[i] = rng.Int63n(footprint)
				}
				switch trial % 3 {
				case 1:
					out[i] = 40 - out[i]
				case 2:
					out[i] = out[i]*out[i]*7919 + 1<<40
				}
			}
			return out
		}
		lead, period := draw(rng.Intn(400)), draw(1+rng.Intn(600))
		idx := newSetIndex([]int64{1, 2, 3, 4, 7, 16}[rng.Intn(6)])
		stacks := map[int64][]int64{} // per set, most recent first
		touch := func(b int64) int {
			s := idx.set(b)
			d := slices.Index(stacks[s], b) + 1
			if d > 0 {
				stacks[s] = slices.Delete(stacks[s], d-1, d)
			}
			stacks[s] = slices.Insert(stacks[s], 0, b)
			return d
		}
		for _, b := range lead {
			touch(b)
		}
		var u useLog
		for _, b := range period {
			touch(b)
			u.use(b)
		}
		entry := map[int64]int{}
		for e, b := range u.blks {
			entry[b] = e
		}
		want := make([]int, len(u.blks))
		for _, b := range period {
			if d := touch(b); entry[b] >= 0 {
				want[entry[b]] = d
				entry[b] = -1 // only the first use
			}
		}
		if got := u.steadyDepths(idx); !slices.Equal(got, want) {
			t.Fatalf("trial %d (%d sets, %d blocks): steady depths %v, naive stack %v", trial, idx.sets, len(want), got, want)
		}
	}
}
