package trace

import (
	"math/rand"
	"testing"
)

// refLRUMisses simulates a fully-associative LRU cache of the given line
// count over the trace, counting misses only for accesses at index >=
// window, with the cache warm from the prefix.
func refLRUMisses(blocks []int64, lines int64, window int) int64 {
	if lines <= 0 {
		n := int64(len(blocks) - window)
		if n < 0 {
			n = 0
		}
		return n
	}
	type nodeT struct {
		blk        int64
		prev, next *nodeT
	}
	var head, tail *nodeT
	pos := make(map[int64]*nodeT)
	unlink := func(n *nodeT) {
		if n.prev != nil {
			n.prev.next = n.next
		} else {
			head = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		} else {
			tail = n.prev
		}
		n.prev, n.next = nil, nil
	}
	pushFront := func(n *nodeT) {
		n.next = head
		if head != nil {
			head.prev = n
		}
		head = n
		if tail == nil {
			tail = n
		}
	}
	var misses int64
	for i, blk := range blocks {
		if n, ok := pos[blk]; ok {
			unlink(n)
			pushFront(n)
			continue
		}
		if i >= window {
			misses++
		}
		if int64(len(pos)) == lines {
			victim := tail
			unlink(victim)
			delete(pos, victim.blk)
		}
		n := &nodeT{blk: blk}
		pos[blk] = n
		pushFront(n)
	}
	return misses
}

func TestProfilerMatchesLRUSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 200 + rng.Intn(800)
		universe := 1 + rng.Intn(60)
		blocks := make([]int64, n)
		for i := range blocks {
			// Mix of sequential sweeps and random touches, like real
			// schedules alternate streaming buffers and state reloads.
			if rng.Intn(2) == 0 {
				blocks[i] = int64(i % universe)
			} else {
				blocks[i] = int64(rng.Intn(universe))
			}
		}
		p := NewProfiler()
		for _, b := range blocks {
			p.Touch(b)
		}
		curve := p.Curve()
		if curve.Accesses != int64(n) {
			t.Fatalf("trial %d: curve accesses %d, want %d", trial, curve.Accesses, n)
		}
		for _, lines := range []int64{0, 1, 2, 3, 5, 8, 13, 21, 34, int64(universe), int64(universe) + 7} {
			want := refLRUMisses(blocks, lines, 0)
			if got := curve.Misses(lines); got != want {
				t.Fatalf("trial %d: lines=%d misses=%d, want %d", trial, lines, got, want)
			}
		}
		if got := curve.Misses(curve.SaturationLines()); got != curve.Cold {
			t.Fatalf("trial %d: misses at saturation %d = %d, want cold %d",
				trial, curve.SaturationLines(), got, curve.Cold)
		}
	}
}

func TestProfilerWindowMatchesWarmLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 400 + rng.Intn(400)
		window := rng.Intn(n / 2)
		universe := 1 + rng.Intn(40)
		blocks := make([]int64, n)
		for i := range blocks {
			blocks[i] = int64(rng.Intn(universe))
		}
		p := NewProfiler()
		for i, b := range blocks {
			if i == window {
				p.ResetCounts()
			}
			p.Touch(b)
		}
		curve := p.Curve()
		if curve.Accesses != int64(n-window) {
			t.Fatalf("trial %d: window accesses %d, want %d", trial, curve.Accesses, n-window)
		}
		for _, lines := range []int64{1, 2, 4, 8, 16, int64(universe)} {
			want := refLRUMisses(blocks, lines, window)
			if got := curve.Misses(lines); got != want {
				t.Fatalf("trial %d: lines=%d window misses=%d, want %d", trial, lines, got, want)
			}
		}
	}
}

func TestProfilerKnownSequence(t *testing.T) {
	// Sequence a b c a b c: second round has stack distance 3 each.
	p := NewProfiler()
	for _, b := range []int64{1, 2, 3, 1, 2, 3} {
		p.Touch(b)
	}
	c := p.Curve()
	if c.Cold != 3 {
		t.Fatalf("cold = %d, want 3", c.Cold)
	}
	if got := c.Misses(3); got != 3 {
		t.Fatalf("misses at 3 lines = %d, want 3 (hits on reuse)", got)
	}
	if got := c.Misses(2); got != 6 {
		t.Fatalf("misses at 2 lines = %d, want 6 (thrash)", got)
	}
	if c.SaturationLines() != 3 {
		t.Fatalf("saturation = %d, want 3", c.SaturationLines())
	}
}

func TestTimelineOrderStatistics(t *testing.T) {
	tl := newTimeline()
	slots := make([]int32, 101)
	for k := int64(1); k <= 100; k++ {
		slots[k] = tl.Append(k, 1)
	}
	if got := tl.CountAfter(slots[50]); got != 50 {
		t.Fatalf("CountAfter(slot 50) = %d, want 50", got)
	}
	for k := int64(2); k <= 100; k += 2 {
		tl.Remove(slots[k], 1)
	}
	if tl.Len() != 50 {
		t.Fatalf("len = %d, want 50", tl.Len())
	}
	if got := tl.CountAfter(slots[50]); got != 25 {
		t.Fatalf("after removes CountAfter(slot 50) = %d, want 25", got)
	}
	if got := tl.CountAfter(0); got != 50 {
		t.Fatalf("after removes CountAfter(0) = %d, want 50", got)
	}
}

// TestTimelineCompaction drives the slot space past its capacity so live
// slots get renumbered, and checks order statistics survive intact.
func TestTimelineCompaction(t *testing.T) {
	tl := newTimeline()
	initialCap := int(tl.cap())
	last := map[int64]int32{}
	compactions := 0
	relabel := func(blk int64, slot int32) {
		if slot == 1 {
			compactions++
		}
		last[blk] = slot
	}
	const universe = 64
	// Reaccess a small working set far more times than the initial slot
	// capacity: each reaccess burns a slot, forcing several compactions.
	for i := 0; i < 10*initialCap; i++ {
		blk := int64(i%universe) - universe/2 // negative ids are blocks like any other
		tl.Room(1, relabel)
		if s, ok := last[blk]; ok {
			tl.Remove(s, 1)
		}
		last[blk] = tl.Append(blk, 1)
	}
	if compactions < 3 {
		t.Fatalf("%d compactions, want at least 3", compactions)
	}
	if tl.Len() != universe {
		t.Fatalf("live = %d, want %d", tl.Len(), universe)
	}
	// After the loop, recency order is blk (i-63) ... (i-0) for the last 64
	// accesses; CountAfter of the k-th most recent block must be k-1.
	total := 10 * initialCap
	for k := 1; k <= universe; k++ {
		blk := int64((total-k)%universe) - universe/2
		if got := tl.CountAfter(last[blk]); got != int64(k-1) {
			t.Fatalf("depth of %d-th most recent = %d, want %d", k, got+1, k)
		}
	}
}

// TestProfilerTouchAllocatesNothingOnceSized: once a profiler's slot space,
// block index and histogram have grown to a working set, Touch and TouchRun
// allocate nothing, however many compactions the accesses force, because
// the timeline renumbers its live slots in place. The working set mixes
// dense and negative ids and is touched block by block, forwards and
// backwards, and as one run.
func TestProfilerTouchAllocatesNothingOnceSized(t *testing.T) {
	const blocks = 3000 // past 4096 slots once sized: a counter level exists
	p := NewProfiler()
	compactions := 0
	p.relabel = func(blk int64, slot int32) {
		if slot == 1 {
			compactions++
		}
		p.store(blk, slot)
	}
	pass := func() {
		for b := int64(0); b < blocks; b++ {
			p.Touch(b)
		}
		p.TouchRun(0, blocks)
		for b := int64(blocks); b > 0; b-- {
			p.Touch(-b)
		}
	}
	for i := 0; i < 8; i++ {
		pass()
	}
	sized := compactions
	if allocs := testing.AllocsPerRun(40, pass); allocs != 0 {
		t.Errorf("%.1f allocations per pass once sized, want 0", allocs)
	}
	if compactions-sized < 5 {
		t.Fatalf("%d compactions while counting allocations, want at least 5", compactions-sized)
	}
}

// TestTimelineCountAfterMatchesNaiveScan checks the counted bitmap against
// a plain scan of the slot space: single and ranged appends and removes,
// a footprint large enough to grow the bitmap to three levels, and counts
// taken at slot 0, at every live slot, and on both sides of every word,
// group and super-group boundary.
func TestTimelineCountAfterMatchesNaiveScan(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	tl := newTimeline()
	slotOf := map[int64]int32{}
	relabel := func(blk int64, slot int32) { slotOf[blk] = slot }
	verify := func(stage string) {
		t.Helper()
		liveAt := make([]bool, tl.cap())
		for _, s := range slotOf {
			if liveAt[s] {
				t.Fatalf("%s: two blocks share slot %d", stage, s)
			}
			liveAt[s] = true
		}
		if len(slotOf) != tl.Len() {
			t.Fatalf("%s: Len = %d, want %d", stage, tl.Len(), len(slotOf))
		}
		// after[s] = live slots strictly above s.
		after := make([]int64, tl.cap())
		var n int64
		for s := len(liveAt) - 1; s >= 0; s-- {
			after[s] = n
			if liveAt[s] {
				n++
			}
		}
		check := func(s int32) {
			if s < 0 || s >= tl.next {
				return
			}
			if got := tl.CountAfter(s); got != after[s] {
				t.Fatalf("%s (%d levels, next %d): CountAfter(%d) = %d, naive scan %d",
					stage, 1+len(tl.counts), tl.next, s, got, after[s])
			}
		}
		check(0)
		for _, s := range slotOf {
			check(s)
		}
		for _, unit := range []int32{64, 64 * 64, 64 * 64 * 64} {
			for b := unit; b < tl.next+unit; b += unit {
				check(b - 1)
				check(b)
			}
		}
	}

	next := int64(0)
	touchRun := func(blk int64, n int32) {
		tl.Room(n, relabel)
		if s, seen := slotOf[blk]; seen {
			tl.Remove(s, n)
		}
		s := tl.Append(blk, n)
		for i := int32(0); i < n; i++ {
			slotOf[blk+int64(i)] = s + i
		}
	}
	grow := func(blocks int64) {
		for end := next + blocks; next < end; {
			n := int32(1 + rng.Intn(150)) // runs straddle word and group boundaries
			touchRun(next, n)
			next += int64(n)
		}
	}
	churn := func(steps int) {
		for i := 0; i < steps; i++ {
			touchRun(rng.Int63n(next), 1)
		}
	}

	grow(1500)
	churn(1000)
	verify("one level")
	if len(tl.counts) != 0 {
		t.Fatalf("a %d-slot timeline has %d counter levels, want none", tl.cap(), len(tl.counts))
	}
	grow(4000)
	churn(30000)
	verify("two levels")
	if len(tl.counts) != 1 {
		t.Fatalf("a %d-slot timeline has %d counter levels, want 1", tl.cap(), len(tl.counts))
	}
	// Re-touch whole runs: ranged removes of slots that are still
	// consecutive after compaction renumbered them.
	for blk := int64(0); blk+200 < next; blk += 997 {
		n := int32(1)
		for slotOf[blk+int64(n)] == slotOf[blk]+n && n < 150 {
			n++
		}
		touchRun(blk, n)
	}
	verify("ranged re-touch")
	grow(70000)
	churn(250000)
	verify("three levels")
	if len(tl.counts) < 2 {
		t.Fatalf("a %d-slot timeline has %d counter levels, want at least 2", tl.cap(), len(tl.counts))
	}
}

// TestTimelineGrowsGeometrically feeds the timeline the shape of a cold
// daemon request: a footprint that creeps up by a few blocks between
// compactions, from 300 to 700 live blocks, over reuses of the blocks
// already live. A space grown to exactly four times the live count would
// reallocate on nearly every compaction; grown at least twofold it
// reallocates O(log) times — at most 3 from 4,096 slots. Every reuse's
// depth, CountAfter plus one, must equal its position in a naive recency
// list.
func TestTimelineGrowsGeometrically(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	tl := newTimeline()
	slotOf := map[int64]int32{}
	var recency []int64 // most recent last
	compactions, resizes := 0, 0
	relabel := func(blk int64, slot int32) {
		if slot == 1 {
			compactions++
		}
		slotOf[blk] = slot
	}
	touch := func(blk int64) {
		before := tl.cap()
		tl.Room(1, relabel)
		if tl.cap() != before {
			resizes++
		}
		if s, seen := slotOf[blk]; seen {
			i := len(recency) - 1
			for recency[i] != blk {
				i--
			}
			if got, want := tl.CountAfter(s)+1, int64(len(recency)-i); got != want {
				t.Fatalf("%d live blocks, %d-slot space: depth of block %d = %d, naive recency list %d",
					tl.Len(), tl.cap(), blk, got, want)
			}
			tl.Remove(s, 1)
			recency = append(recency[:i], recency[i+1:]...)
		}
		slotOf[blk] = tl.Append(blk, 1)
		recency = append(recency, blk)
	}

	next := int64(0)
	for ; next < 300; next++ {
		touch(next)
	}
	for next < 700 {
		seen := compactions
		for compactions == seen {
			// Recent reuses mostly, as a streaming schedule's are.
			touch(recency[len(recency)-1-int(rng.ExpFloat64()*40)%len(recency)])
		}
		for grow := next + 3 + rng.Int63n(5); next < grow; next++ {
			touch(next)
		}
	}
	if compactions < 20 {
		t.Fatalf("%d compactions, want at least 20 for the footprint to creep", compactions)
	}
	if resizes > 3 {
		t.Errorf("%d resizes over %d compactions growing to %d live blocks, want at most 3",
			resizes, compactions, tl.Len())
	}
}

func TestCurveWithNoReuse(t *testing.T) {
	// All-distinct trace: the histogram is empty and the curve is pure
	// cold misses at every capacity (regression: this used to panic).
	p := NewProfiler()
	for b := int64(0); b < 10; b++ {
		p.Touch(b)
	}
	c := p.Curve()
	if c.Accesses != 10 || c.Cold != 10 {
		t.Fatalf("accesses=%d cold=%d, want 10,10", c.Accesses, c.Cold)
	}
	for _, lines := range []int64{0, 1, 5, 100} {
		if got := c.Misses(lines); got != 10 {
			t.Fatalf("misses at %d lines = %d, want 10", lines, got)
		}
	}
	if c.SaturationLines() != 0 {
		t.Fatalf("saturation = %d, want 0", c.SaturationLines())
	}
	// Empty profiler: zero-valued curve, no panic.
	e := NewProfiler().Curve()
	if e.Accesses != 0 || e.Misses(4) != 0 {
		t.Fatalf("empty curve: accesses=%d misses=%d", e.Accesses, e.Misses(4))
	}
}
