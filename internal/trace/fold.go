package trace

import (
	"fmt"
	"slices"

	"streamsched/internal/ratio"
)

// What an LRU stack keeps of a stretch of accesses is each distinct block
// once, ordered by its last use: feeding the stretch to any stack leaves its
// blocks on top in that order over the rest in their old order. Two things
// follow, and both let the organisation profilers skip work that cannot
// change an answer.
//
// Warm-up. Accesses before the window mark are not counted, so an LRU
// family whose per-access verdict nobody reads only needs to know, at the
// mark, the warm-up's distinct blocks in last-use order: fed those once, it
// holds the stack the whole warm-up would have left.
//
// Folding. When the stream is periodic, a period applied twice leaves a
// stack unchanged, so every period after the first finds each block at the
// same depth. Within one period, a block's reuse finds the blocks used since
// its previous use, the same in every period; only the first use of each
// block b depends on what came before. In a steady period — one preceded by
// the same period — b's first use finds above it every block used after b's
// last use or before b's first use, so its depth is
//
//	D_b = N − |{c : f_c > f_b, l_c < l_b}|
//
// with f and l the period's first and last uses and N the distinct blocks of
// b's set in the period. One recorded period, whatever stack it started
// from, thus gives the steady period's counts: its own, each first use moved
// from the bucket it was counted in to the one D_b falls in, and no cold
// access.

// useLog reduces a stretch of the access stream to what an LRU stack keeps
// of it: every distinct block once, in order of first use, with the tick of
// its last use.
type useLog struct {
	tick   int64           // accesses logged
	dense  []int32         // block id -> entry+1, 0 = unseen (dense ids)
	sparse map[int64]int32 // the same for huge or negative ids
	blks   []int64         // entry -> block, in order of first use
	last   []int64         // entry -> tick of its last use
}

// use logs one access and returns its block's entry, and whether this was
// the block's first use in the log.
func (u *useLog) use(blk int64) (e int32, first bool) {
	if blk >= 0 && blk < int64(len(u.dense)) && u.dense[blk] != 0 {
		e = u.dense[blk] - 1
		u.last[e] = u.tick
		u.tick++
		return e, false
	}
	return u.slowUse(blk)
}

// slowUse is use off its fast path: a first use, or a sparse or negative
// id.
func (u *useLog) slowUse(blk int64) (e int32, first bool) {
	dense := blk >= 0 && blk < denseLimit
	var at int32
	if !dense {
		at = u.sparse[blk]
	}
	if at == 0 {
		u.blks = append(u.blks, blk)
		u.last = append(u.last, 0)
		at, first = int32(len(u.blks)), true
		switch {
		case dense:
			if blk >= int64(len(u.dense)) {
				u.dense = growCells(u.dense, int(blk)+1)
			}
			u.dense[blk] = at
		case u.sparse == nil:
			u.sparse = map[int64]int32{blk: at}
		default:
			u.sparse[blk] = at
		}
	}
	u.last[at-1] = u.tick
	u.tick++
	return at - 1, first
}

// useRun logs accesses to the blocks base, base+1, … up to end, stopping
// after the first that is its block's first use in the log. It returns the
// block after the last one logged and that first use's entry, or -1 when
// it reached end without one.
func (u *useLog) useRun(base, end int64) (next int64, first int32) {
	if base >= 0 && end <= int64(len(u.dense)) {
		t := u.tick
		for i, at := range u.dense[base:end] {
			if at == 0 {
				u.tick = t
				e, _ := u.slowUse(base + int64(i))
				return base + int64(i) + 1, e
			}
			u.last[at-1] = t
			t++
		}
		u.tick = t
		return end, -1
	}
	for ; base < end; base++ {
		if e, isFirst := u.use(base); isFirst {
			return base + 1, e
		}
	}
	return end, -1
}

// reset empties the log, keeping its tables.
func (u *useLog) reset() {
	for _, b := range u.blks {
		if b >= 0 && b < denseLimit {
			u.dense[b] = 0
		}
	}
	clear(u.sparse)
	u.blks, u.last, u.tick = u.blks[:0], u.last[:0], 0
}

// byLastUse returns the entries ordered by last use, least recent first.
func (u *useLog) byLastUse() []int32 {
	order := make([]int32, len(u.blks))
	for e := range order {
		order[e] = int32(e)
	}
	slices.SortFunc(order, func(a, b int32) int { return int(u.last[a] - u.last[b]) })
	return order
}

// steadyDepths returns, per entry, the depth its block's first use finds in
// a steady period of the logged stream under idx's placement: D_b, counted
// per set with one Fenwick tree over last-use ranks, taking each set's
// entries from the last first use back.
func (u *useLog) steadyDepths(idx setIndex) []int {
	n := len(u.blks)
	rank := make([]int32, n) // 1-based rank of the entry's last use
	for r, e := range u.byLastUse() {
		rank[e] = int32(r + 1)
	}
	set := make([]int64, n)
	order := make([]int32, n) // by set, each set in order of first use
	for e, b := range u.blks {
		set[e], order[e] = idx.set(b), int32(e)
	}
	if idx.sets > 1 {
		slices.SortStableFunc(order, func(a, b int32) int { return int(set[a] - set[b]) })
	}
	fen := make([]int32, n+1)
	add := func(i, v int32) {
		for ; int(i) <= n; i += i & -i {
			fen[i] += v
		}
	}
	below := func(i int32) (c int) { // entries added with rank < i
		for i--; i > 0; i &= i - 1 {
			c += int(fen[i])
		}
		return c
	}
	depth := make([]int, n)
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && set[order[hi]] == set[order[lo]] {
			hi++
		}
		for _, e := range slices.Backward(order[lo:hi]) {
			depth[e] = hi - lo - below(rank[e])
			add(rank[e], 1)
		}
		for _, e := range order[lo:hi] {
			add(rank[e], -1)
		}
		lo = hi
	}
	return depth
}

// periodLog is a candidate period as OrgProfilers record it: its use log,
// the bucket each family counted every block's first use in, and the
// tallies the period started from.
type periodLog struct {
	useLog
	first []int32   // entry*families + family: its first use's bucket, as touch reports it
	base  [][]int64 // the tallies at the start, in eachCount's order
}

// eachCount calls fn on every tally a fold repeats: each family's
// histogram in family order, then the access count the rows' depth-1
// reuses are derived from, as a tally of one bucket. A row family of one
// lane owns its whole histogram, and neither it nor the access count ever
// grows, so both are handed over as views of the store's own counts.
func (p *OrgProfilers) eachCount(fn func(*depthCounts)) {
	for i := range p.rows {
		fn(&depthCounts{hist: p.rows[i].hist})
	}
	for i := range p.markers {
		fn(&p.markers[i].lanes[0].depthCounts)
	}
	if p.full != nil {
		fn(&p.full.depthCounts)
	}
	fn(&depthCounts{hist: p.accesses})
}

// StartWarmup says the accesses until the next ResetCounts only warm the
// stacks. The LRU families then stamp each block's last use instead of
// being touched, and ResetCounts rebuilds their stacks by feeding the
// distinct blocks once, in last-use order — the stacks the warm-up would
// have left. The FIFO replicas stay live: FIFO state is not a stack.
// Missed reads nothing valid until the mark, so only a caller that does
// not read the verdicts may warm up this way.
func (p *OrgProfilers) StartWarmup() { p.warm = &useLog{} }

// warmTouch is touch during a warm-up: the FIFO replicas see every access.
// The blockTable's seen bits need only one access per distinct block, which
// endWarmup gives them.
func (p *OrgProfilers) warmTouch(blk int64) {
	p.warm.use(blk)
	if p.banks != nil {
		p.banks[0].touch(blk, p.table.slot(blk))
	}
}

// endWarmup rebuilds the stacks a warm-up skipped. The replicas saw the
// warm-up live, so the bank sits the rebuild out.
func (p *OrgProfilers) endWarmup() {
	u, banks := p.warm, p.banks
	p.warm, p.banks = nil, nil
	for _, e := range u.byLastUse() {
		p.touch(u.blks[e])
	}
	p.banks = banks
}

// Foldable reports whether RepeatSteady can count repetitions of the
// stream for these profilers: every one is an LRU stack. FIFO is not a
// stack algorithm — its state after a period need not recur — so one FIFO
// replica makes the profilers unfoldable; a one-way FIFO point is an LRU
// point and needs none.
func (p *OrgProfilers) Foldable() bool { return p.banks == nil }

// StartPeriod starts recording a candidate period of the stream, dropping
// any earlier one: from here on the profilers note each block's first and
// last use and the depth its first use was found at, which RepeatSteady
// needs. The profilers must be past their warm-up.
func (p *OrgProfilers) StartPeriod() {
	l := p.period
	if l == nil {
		l = &periodLog{}
	}
	l.reset()
	l.first = l.first[:0]
	i := 0
	p.eachCount(func(c *depthCounts) {
		if i == len(l.base) {
			l.base = append(l.base, nil)
		}
		l.base[i] = append(l.base[i][:0], c.hist...)
		i++
	})
	p.period = l
}

// noteFirst records the buckets this access was counted in if it is its
// block's first use in the period.
func (l *periodLog) noteFirst(blk int64, depth []int) {
	if _, first := l.use(blk); first {
		for _, d := range depth {
			l.first = append(l.first, int32(d))
		}
	}
}

// noteRun is noteFirst for a stretch of blocks the lone unbounded
// fully-associative family found at one depth.
func (l *periodLog) noteRun(base, k int64, d int) {
	for end := base + k; base < end; {
		var e int32
		if base, e = l.useRun(base, end); e >= 0 {
			l.first = append(l.first, int32(d))
		}
	}
}

// RepeatSteady ends the period StartPeriod began and counts k more
// repetitions of it without being fed them; k == 0 only ends it. The
// stream must be periodic from the period's start, the period one whole
// repetition. Each repetition counts as a steady period: the recorded
// period's counts with each block's first use moved to the bucket its
// steady depth D_b falls in, and no cold access (fold.go says why that is
// exact). Rows and marker lists are the top of the full stacks — a marker
// zone is a fixed range of depths — so the same holds for them, and the
// access count repeats with the histograms, since the rows' depth-1 reuses
// are derived from it. The stacks already are in the steady state: the
// recorded period left each set's blocks on top in last-use order, as every
// later period will. RepeatSteady fails, changing nothing, when a count
// would overflow int64.
func (p *OrgProfilers) RepeatSteady(k int64) error {
	l := p.period
	p.period = nil
	if k == 0 || l == nil {
		return nil
	}
	if !p.Foldable() {
		return fmt.Errorf("trace: FIFO replicas cannot be folded")
	}
	steady := p.steadyCounts(l)
	// The first pass only checks, so that a refused repeat changes nothing.
	for _, apply := range []bool{false, true} {
		fits := true
		add := func(c *depthCounts, d int, v int64) {
			var x int64
			if d < len(c.hist) {
				x = c.hist[d]
			}
			_, ok := ratio.AddMul(x, k, v)
			if fits = fits && ok; apply && v != 0 {
				c.count(int64(d), k*v)
			}
		}
		i := 0
		p.eachCount(func(c *depthCounts) {
			for d, v := range steady[i].hist {
				add(c, d, v)
			}
			i++
		})
		if !fits {
			return fmt.Errorf("trace: repeating the counts %d times overflows int64", k)
		}
	}
	return nil
}

// steadyCounts returns one steady period's tallies, one per family.
func (p *OrgProfilers) steadyCounts(l *periodLog) []depthCounts {
	var steady []depthCounts
	i := 0
	p.eachCount(func(c *depthCounts) {
		h := slices.Clone(c.hist)
		for d, v := range l.base[i] {
			h[d] -= v // a histogram only grows
		}
		steady = append(steady, depthCounts{hist: h})
		i++
	})
	fams := len(p.depth)
	fi := 0 // the family, and its tally in steady
	for i := range p.rows {
		f, c := &p.rows[i], &steady[fi]
		for e, d := range l.steadyDepths(f.idx) {
			c.hist[l.first[e*fams+fi]]--
			if d > f.bound {
				d = 0
			}
			c.hist[d]++
		}
		c.hist[1] = 0 // derived from the access count, never stored
		fi++
	}
	for i := range p.markers {
		f, c := &p.markers[i], &steady[fi]
		for e, d := range l.steadyDepths(f.idx) {
			c.hist[l.first[e*fams+fi]]--
			c.hist[f.lanes[0].zone(d)]++
		}
		fi++
	}
	if p.full != nil {
		c := &steady[fi]
		for e, d := range l.steadyDepths(newSetIndex(1)) {
			if was := l.first[e*fams+fi]; was > 0 {
				c.hist[was]-- // a first-ever use was counted cold, which a steady period has none of
			}
			c.count(int64(d), 1)
		}
	}
	return steady
}
