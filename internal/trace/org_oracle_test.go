package trace_test

// The organisation profiler's oracle: whatever structure a spec resolves
// to — request-bounded rows and marker lists, the fully-associative
// timeline stack, families shared between specs, the residency-bitmask
// FIFO bank — every point it answers must equal a pointwise replay of the
// same stream through a cachesim.Bank of that geometry, and every point it
// cannot answer must say so.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// bankMisses is the pointwise oracle: the in-window misses of one
// sets x ways cache under the policy.
func bankMisses(stream []int64, warm int, sets, ways int64, policy cachesim.Policy) int64 {
	b := cachesim.NewBank(sets, ways, policy)
	var misses int64
	for i, blk := range stream {
		if i == warm {
			misses = 0
		}
		if !b.Access(blk) {
			b.Insert(blk)
			misses++
		}
	}
	if warm >= len(stream) {
		return 0
	}
	return misses
}

// recordStream records the stream with the window at warm (warm ==
// len(stream) is the empty window).
func recordStream(stream []int64, warm int) *trace.Log {
	l := trace.NewLog()
	for i, blk := range stream {
		if i == warm {
			l.MarkWindow()
		}
		l.RecordRun(blk, 1)
	}
	if warm >= len(stream) {
		l.MarkWindow()
	}
	return l
}

// unboundedDepth is how deep the oracle probes a fully-associative curve
// that answers every capacity.
const unboundedDepth = 24

// everyKindWays is the way list a set-associative test spec names when the
// test needs one: way counts from one way to past the row/marker crossover
// (markerWays), so shallow and deep points are both checked.
var everyKindWays = []int64{1, 2, 3, 5, 8, 16, 40, 100}

// windowTotals is what every curve of the stream counts: the accesses in
// the window, and how many of them are the block's first ever.
func windowTotals(stream []int64, warm int) (accesses, cold int64) {
	seen := make(map[int64]bool)
	for i, blk := range stream {
		if i >= warm {
			accesses++
			if !seen[blk] {
				cold++
			}
		}
		seen[blk] = true
	}
	return accesses, cold
}

// checkOrgCurves compares every point of the curves against the oracle,
// and Accesses/Cold against the stream's window (windowTotals). A spec
// that lists LRU way counts answers exactly those (checkRefusals).
func checkOrgCurves(t *testing.T, label string, stream []int64, warm int, specs []trace.OrgSpec, curves []*trace.OrgCurves) {
	t.Helper()
	accesses, cold := windowTotals(stream, warm)
	if len(curves) != len(specs) {
		t.Fatalf("%s: %d curves for %d specs", label, len(curves), len(specs))
	}
	for i, s := range specs {
		oc := curves[i]
		if oc.LRU.Accesses != accesses || oc.LRU.Cold != cold {
			t.Fatalf("%s spec %d: accesses/cold %d/%d, the window holds %d/%d", label, i,
				oc.LRU.Accesses, oc.LRU.Cold, accesses, cold)
		}
		ways := s.LRUWays
		if len(ways) == 0 {
			if len(oc.LRU.Ways) > 0 {
				t.Fatalf("%s spec %d: unbounded spec, curve bounded at ways %v", label, i, oc.LRU.Ways)
			}
			for w := int64(1); w <= unboundedDepth; w++ {
				ways = append(ways, w)
			}
		} else {
			checkRefusals(t, fmt.Sprintf("%s spec %d", label, i), s, oc)
		}
		for _, w := range ways {
			want := bankMisses(stream, warm, s.Sets, w, cachesim.LRU)
			if got, ok := oc.Misses(w, false); !ok || got != want {
				t.Fatalf("%s spec %d sets=%d ways=%d LRU: curve %d (ok=%v), bank %d", label, i, s.Sets, w, got, ok, want)
			}
		}
		if len(s.FIFOWays) == 0 {
			if oc.FIFO != nil {
				t.Fatalf("%s spec %d: FIFO curve without FIFO way counts", label, i)
			}
			continue
		}
		if oc.FIFO.Accesses != accesses || oc.FIFO.Cold != cold {
			t.Fatalf("%s spec %d: FIFO accesses/cold %d/%d, want %d/%d", label, i,
				oc.FIFO.Accesses, oc.FIFO.Cold, accesses, cold)
		}
		for _, w := range s.FIFOWays {
			want := bankMisses(stream, warm, s.Sets, w, cachesim.FIFO)
			if got, ok := oc.Misses(w, true); !ok || got != want {
				t.Fatalf("%s spec %d sets=%d ways=%d FIFO: curve %d (ok=%v), bank %d", label, i, s.Sets, w, got, ok, want)
			}
		}
	}
}

// checkRefusals holds a spec that lists LRU way counts to answering only
// those: every other way count up to one past the deepest is ok=false, and
// the family's curve — which answers what its specs listed, unless it is
// fully associative and one of them lists none — panics on a way count
// none of them listed.
func checkRefusals(t *testing.T, label string, s trace.OrgSpec, oc *trace.OrgCurves) {
	t.Helper()
	for w := int64(1); w <= slices.Max(s.LRUWays)+1; w++ {
		if n, ok := oc.Misses(w, false); ok != slices.Contains(s.LRUWays, w) {
			t.Fatalf("%s lists LRU ways %v, yet %d ways answered ok=%v (%d)", label, s.LRUWays, w, ok, n)
		}
	}
	fam := oc.LRU.Ways
	if len(fam) == 0 {
		return
	}
	for _, w := range s.LRUWays {
		if _, found := slices.BinarySearch(fam, w); !found {
			t.Fatalf("%s lists %d ways, its curve answers %v", label, w, fam)
		}
	}
	past := fam[len(fam)-1] + 1
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: LRU.Misses(%d) on a curve answering %v did not panic", label, past, fam)
		}
	}()
	oc.LRU.Misses(past)
}

// oracleStream draws a stream over nblocks distinct blocks whose ids are
// dense, sparse (past the dense table's limit), negative, or a mix.
func oracleStream(rng *rand.Rand, n int, nblocks int64, ids int) []int64 {
	stream := randomStream(rng, n, nblocks)
	for i, blk := range stream {
		switch ids {
		case 1: // sparse: strided far past the dense table
			stream[i] = 1<<24 + blk*1000003
		case 2: // negative
			stream[i] = -blk - 1
		case 3: // all three in one stream
			switch blk % 3 {
			case 1:
				stream[i] = 1<<24 + blk*1000003
			case 2:
				stream[i] = -blk - 1
			}
		}
	}
	return stream
}

// oracleSpecs draws a spec list: power-of-two and odd set counts, set
// counts repeated across specs, FIFO lists with duplicates, and LRU way
// lists — unsorted, with duplicates and gaps — of way counts below, at and
// above what a set can hold, on both sides of the row/marker crossover,
// and 193, 256 and 1,024 deep. A fully-associative spec may list none; a
// set-associative one drawn without any lists everyKindWays.
func oracleSpecs(rng *rand.Rand, nblocks int64) []trace.OrgSpec {
	setCounts := []int64{1, 2, 3, 4, 5, 7, 8, 12, 16}
	specs := make([]trace.OrgSpec, 2+rng.Intn(5))
	for i := range specs {
		s := trace.OrgSpec{Sets: setCounts[rng.Intn(len(setCounts))]}
		perSet := nblocks/s.Sets + 1
		for k := rng.Intn(5); k > 0; k-- { // none: every capacity, or everyKindWays
			var w int64
			switch rng.Intn(5) {
			case 0: // below the set's footprint
				w = 1 + rng.Int63n(perSet)
			case 1: // exactly the footprint
				w = perSet
			case 2: // above it
				w = perSet + 1 + rng.Int63n(8)
			case 3: // deep
				w = []int64{193, 256, 1024}[rng.Intn(3)]
			default: // around the crossover
				w = 1 + rng.Int63n(64)
			}
			s.LRUWays = append(s.LRUWays, w)
			if rng.Intn(4) == 0 {
				s.LRUWays = append(s.LRUWays, w) // duplicate
			}
		}
		if s.Sets > 1 && len(s.LRUWays) == 0 {
			s.LRUWays = everyKindWays
		}
		for k := rng.Intn(4); k > 0; k-- {
			w := 1 + rng.Int63n(perSet+4)
			s.FIFOWays = append(s.FIFOWays, w)
			if rng.Intn(3) == 0 {
				s.FIFOWays = append(s.FIFOWays, w) // duplicate
			}
		}
		specs[i] = s
	}
	return specs
}

// checkVerdicts feeds the stream to fresh profilers access by access and
// holds, after every access, every point's Missed against a cachesim.Bank
// of the point's geometry, and at the end every curve's Cold against the
// first-ever accesses in the window. A spec's points are its listed LRU way
// counts (1…unboundedDepth when it lists none) and its FIFO way counts.
func checkVerdicts(t *testing.T, label string, stream []int64, warm int, specs []trace.OrgSpec) {
	t.Helper()
	p, err := trace.NewOrgProfilers(specs)
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		name string
		pt   trace.OrgPoint
		bank *cachesim.Bank
	}
	var points []point
	add := func(i int, ways int64, policy cachesim.Policy) {
		pt, ok := p.Point(i, ways, policy == cachesim.FIFO)
		if !ok {
			t.Fatalf("%s spec %d: %v point at %d ways not resolved", label, i, policy, ways)
		}
		points = append(points, point{fmt.Sprintf("spec %d sets=%d ways=%d %v", i, specs[i].Sets, ways, policy), pt,
			cachesim.NewBank(specs[i].Sets, ways, policy)})
	}
	for i, s := range specs {
		ways := s.LRUWays
		if len(ways) == 0 {
			for w := int64(1); w <= unboundedDepth; w++ {
				ways = append(ways, w)
			}
		}
		for _, w := range ways {
			add(i, w, cachesim.LRU)
		}
		for _, w := range s.FIFOWays {
			add(i, w, cachesim.FIFO)
		}
	}
	for i, blk := range stream {
		if i == warm {
			p.ResetCounts()
		}
		p.Touch(blk)
		for _, q := range points {
			miss := !q.bank.Access(blk)
			if miss {
				q.bank.Insert(blk)
			}
			if p.Missed(q.pt) != miss {
				t.Fatalf("%s %s: access %d (block %d) Missed %v, bank missed %v", label, q.name, i, blk, !miss, miss)
			}
		}
	}
	if warm >= len(stream) {
		p.ResetCounts()
	}
	_, cold := windowTotals(stream, warm)
	for i, c := range p.Curves() {
		if c.LRU.Cold != cold || c.FIFO != nil && c.FIFO.Cold != cold {
			t.Fatalf("%s spec %d: LRU cold %d, FIFO %+v, want %d first-ever accesses in the window", label, i, c.LRU.Cold, c.FIFO, cold)
		}
	}
}

// kindSpecs are spec lists that hold one family of every kind — the
// fully-associative timeline stack, rows and marker lists — at power-of-two
// and other set counts, each with one-way FIFO points, which are LRU
// points; with replicas, every family also replays FIFO at more than one
// way.
func kindSpecs(replicas bool) []trace.OrgSpec {
	specs := []trace.OrgSpec{
		{Sets: 1, FIFOWays: []int64{1}},
		{Sets: 3, LRUWays: everyKindWays},
		{Sets: 4, LRUWays: []int64{8, 2}, FIFOWays: []int64{1}},
		{Sets: 6, LRUWays: []int64{3}},
		{Sets: 2, LRUWays: []int64{100, 64}},
		{Sets: 5, LRUWays: []int64{70, 1}, FIFOWays: []int64{1}},
	}
	if replicas {
		for i := range specs {
			specs[i].FIFOWays = append(specs[i].FIFOWays, 2, int64(3+i))
		}
	}
	return specs
}

// TestOrgProfilersMatchBankOracle is the profiler's core property on
// random logs: dense, sparse and negative block ids, non-power-of-two set
// counts, way lists around the footprint and up to 1,024 deep, duplicate
// way counts, a window reset anywhere from the first access to past the
// last, footprints on both sides of the deepest marker list (220–1,200
// blocks), short traces and long ones. Each
// log's curves are held against the bank, and so is every point's
// per-access verdict (checkVerdicts) — on the random spec lists and on
// kindSpecs', with and without FIFO replicas.
func TestOrgProfilersMatchBankOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		nblocks := int64(4 + rng.Intn(60))
		if trial%6 == 5 {
			// Deep enough that one-set marker lists fill and drop blocks.
			nblocks = int64(220 + rng.Intn(981))
		}
		n := 500 + rng.Intn(1500)
		long := trial%4 == 3
		if long {
			n = 40000 // long enough for the timeline stacks to compact
		}
		stream := oracleStream(rng, n, nblocks, trial%4)
		warm := rng.Intn(n + 1)
		specs := oracleSpecs(rng, nblocks)
		curves, err := trace.ProfileOrgs(recordStream(stream, warm), specs)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("trial %d (ids %d, long %v, warm %d/%d) specs %+v", trial, trial%4, long, warm, n, specs)
		checkOrgCurves(t, label, stream, warm, specs, curves)
		if long {
			stream = stream[:5000] // the per-access check costs a bank access per point
		} else {
			checkVerdicts(t, label, stream, warm, specs)
		}
		if trial < 8 {
			// An early window, so that first-ever accesses are counted.
			warm := warm % 32
			kinds := kindSpecs(trial >= 4)
			curves, err := trace.ProfileOrgs(recordStream(stream, warm), kinds)
			if err != nil {
				t.Fatal(err)
			}
			label = fmt.Sprintf("trial %d (ids %d, warm %d/%d) kindSpecs(%v)", trial, trial%4, warm, n, trial >= 4)
			checkOrgCurves(t, label, stream, warm, kinds, curves)
			checkVerdicts(t, label, stream, warm, kinds)
		}
	}
	// Unwarmed streams whose rows open with block 0 (dense ids: slot 0),
	// so that every first access is counted and checked: a row head that
	// starts at slot 0 rather than at no slot reads block 0's first access
	// in its row as a reuse.
	for trial := 0; trial < 4; trial++ {
		nblocks := int64(8 + rng.Intn(56))
		stream := append([]int64{0}, oracleStream(rng, 300, nblocks, 0)...)
		for _, replicas := range []bool{false, true} {
			kinds := kindSpecs(replicas)
			label := fmt.Sprintf("unwarmed trial %d (%d blocks, opens with block 0) kindSpecs(%v)", trial, nblocks, replicas)
			checkVerdicts(t, label, stream, 0, kinds)
			curves, err := trace.ProfileOrgs(recordStream(stream, 0), kinds)
			if err != nil {
				t.Fatal(err)
			}
			checkOrgCurves(t, label, stream, 0, kinds, curves)
		}
	}
}

// TestOrgProfilersManyFIFOReplicas drives more FIFO points than one mask
// word holds, so residency bits span words — across families, and within
// one family through an OrgProfilers of a single FIFO spec.
func TestOrgProfilersManyFIFOReplicas(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	stream := oracleStream(rng, 3000, 90, 3)
	const warm = 800
	var specs []trace.OrgSpec
	replicas := 0
	for _, sets := range []int64{1, 2, 3, 4} {
		s := trace.OrgSpec{Sets: sets, LRUWays: []int64{4}}
		for w := int64(1); w <= 24; w++ {
			s.FIFOWays = append(s.FIFOWays, w)
		}
		replicas += len(s.FIFOWays)
		specs = append(specs, s)
	}
	if replicas <= 64 {
		t.Fatalf("only %d replicas; the test must cross a mask word", replicas)
	}
	curves, err := trace.ProfileOrgs(recordStream(stream, warm), specs)
	if err != nil {
		t.Fatal(err)
	}
	checkOrgCurves(t, "many replicas", stream, warm, specs, curves)

	ways := make([]int64, 70)
	for i := range ways {
		ways[i] = int64(i + 1)
	}
	one := []trace.OrgSpec{{Sets: 3, FIFOWays: ways, LRUWays: everyKindWays}}
	p, err := trace.NewOrgProfilers(one)
	if err != nil {
		t.Fatal(err)
	}
	// Missed must read each replica's bit out of the right mask word: the
	// per-access verdicts, counted over the window, are the curve.
	points, missed := make([]trace.OrgPoint, len(ways)), make([]int64, len(ways))
	for k, w := range ways {
		var ok bool
		if points[k], ok = p.Point(0, w, true); !ok {
			t.Fatalf("FIFO point at %d ways not resolved", w)
		}
	}
	for i, blk := range stream {
		if i == warm {
			p.ResetCounts()
		}
		p.Touch(blk)
		for k, pt := range points {
			if i >= warm && p.Missed(pt) {
				missed[k]++
			}
		}
	}
	curves = p.Curves()
	checkOrgCurves(t, "one family, 70 replicas", stream, warm, one, curves)
	for k, w := range ways {
		if want, _ := curves[0].FIFO.Misses(w); missed[k] != want {
			t.Errorf("FIFO %d ways: Missed reported %d windowed misses, curve %d", w, missed[k], want)
		}
	}
}

// TestProfileOrgsJobsMatchesSequential pins the deprecated four-argument
// shim: every (jobs, decodeJobs) returns ProfileOrgs' curves for one
// replay.
func TestProfileOrgsJobsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := []trace.OrgSpec{
		{Sets: 1, FIFOWays: []int64{32, 64}},
		{Sets: 4, FIFOWays: []int64{8}, LRUWays: []int64{8}},
		{Sets: 3, FIFOWays: []int64{2, 24}, LRUWays: everyKindWays},
	}
	l := recordStream(oracleStream(rng, 3000, 200, 3), 700)
	want, err := trace.ProfileOrgs(l, specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, jd := range [][2]int{{0, 0}, {1, 1}, {4, 4}} {
		before := l.Replays()
		got, err := trace.ProfileOrgsJobs(l, specs, jd[0], jd[1])
		if err != nil || !reflect.DeepEqual(got, want) || l.Replays() != before+1 {
			t.Errorf("ProfileOrgsJobs(%d, %d) differs from ProfileOrgs (err %v, %d replays)", jd[0], jd[1], err, l.Replays()-before)
		}
	}
}

// TestProfileOrgsJobsWindowEdges pins the window protocol's corners
// against the oracle: never marked (whole trace measured), window at 0,
// window at Len (empty window), and an empty log.
func TestProfileOrgsJobsWindowEdges(t *testing.T) {
	specs := []trace.OrgSpec{{Sets: 1, FIFOWays: []int64{4}}, {Sets: 4, LRUWays: []int64{2, 1}}}
	stream := make([]int64, 50)
	for i := range stream {
		stream[i] = int64(i % 13)
	}
	for _, mark := range []int{-1, 0, 50} { // -1: never mark (window 0)
		l := trace.NewLog()
		for i, blk := range stream {
			if i == mark {
				l.MarkWindow()
			}
			l.RecordRun(blk, 1)
		}
		if mark == 50 {
			l.MarkWindow()
		}
		curves, err := trace.ProfileOrgsJobs(l, specs, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		warm := mark
		if warm < 0 {
			warm = 0
		}
		checkOrgCurves(t, fmt.Sprintf("mark=%d", mark), stream, warm, specs, curves)
	}
	curves, err := trace.ProfileOrgsJobs(trace.NewLog(), specs, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkOrgCurves(t, "empty log", nil, 0, specs, curves)
}

// TestProfileOrgsJobsConcurrentLogs profiles independent logs from
// several goroutines at once — the Sweep shape — so the race detector
// sees that profilers of different logs share nothing.
func TestProfileOrgsJobsConcurrentLogs(t *testing.T) {
	specs := []trace.OrgSpec{{Sets: 1, FIFOWays: []int64{8}}, {Sets: 8, FIFOWays: []int64{2}, LRUWays: []int64{2}}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			stream := oracleStream(rng, 4000, 70, int(seed))
			l := recordStream(stream, 1000)
			curves, err := trace.ProfileOrgs(l, specs)
			if err != nil {
				t.Error(err)
				return
			}
			for _, oc := range curves {
				if got := oc.LRU.Misses(2); got != bankMisses(stream, 1000, oc.Spec.Sets, 2, cachesim.LRU) {
					t.Errorf("seed %d sets=%d: curve disagrees with the bank under concurrent profiling", seed, oc.Spec.Sets)
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// TestTimelineStacksKeepAnyIdAcrossCompactions is the regression for a
// timeline that took a non-negative block id as its liveness mark: every
// block with a negative id vanished at the first compaction (4096 appends
// in) and its later re-references read a stale slot. Negative, sparse and
// mixed ids, long enough for the timeline to compact at least three times
// (a stack of f live blocks compacts every 4·(f+1025) appends after the
// first 4096), at every capacity against the bank: the fully-associative
// Profiler directly, then OrgProfilers' Sets=1 stack behind a window mark.
func TestTimelineStacksKeepAnyIdAcrossCompactions(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for ids := 1; ids <= 3; ids++ {
		const small, n = 40, 40000
		stream := oracleStream(rng, n, small, ids)
		p := trace.NewProfiler()
		for _, blk := range stream {
			p.Touch(blk)
		}
		curve := p.Curve()
		for lines := int64(1); lines <= small+1; lines++ {
			if got, want := curve.Misses(lines), bankMisses(stream, 0, 1, lines, cachesim.LRU); got != want {
				t.Fatalf("ids %d: Profiler at %d lines: %d misses, bank %d", ids, lines, got, want)
			}
		}

		const big, m, warm = 630, 90000, 20000
		stream = oracleStream(rng, m, big, ids)
		curves, err := trace.ProfileOrgs(recordStream(stream, warm), []trace.OrgSpec{{Sets: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, lines := range []int64{1, 2, 3, 5, 8, 16, 40, 100, 191, 192, 193, big - 1, big, big + 1} {
			if got, want := curves[0].LRU.Misses(lines), bankMisses(stream, warm, 1, lines, cachesim.LRU); got != want {
				t.Fatalf("ids %d: Sets=1 stack at %d lines: curve %d, bank %d", ids, lines, got, want)
			}
		}
	}
}

// runStream builds a stream out of ascending runs of 1–80 blocks: fresh
// ones, exact repeats, partial overlaps of earlier runs, and earlier runs
// walked backwards, over dense ids (reaching past the dense table's first
// size), sparse ids, negative ids (runs crossing zero included), or all.
func runStream(rng *rand.Rand, accesses int, ids int) (runs [][2]int64) {
	place := func(span int64) int64 {
		kind := ids
		if ids == 3 {
			kind = rng.Intn(3)
		}
		switch kind {
		case 1:
			return 1<<24 + rng.Int63n(span) // past the dense limit
		case 2:
			return -rng.Int63n(span) // runs near zero cross it
		}
		return rng.Int63n(span)
	}
	for n := 0; n < accesses; {
		var r [2]int64
		switch prev := len(runs); {
		case prev == 0 || rng.Intn(4) == 0:
			r = [2]int64{place(12000), 1 + rng.Int63n(80)}
		case rng.Intn(3) == 0: // repeat
			r = runs[rng.Intn(prev)]
		case rng.Intn(2) == 0: // partial overlap
			old := runs[rng.Intn(prev)]
			r = [2]int64{old[0] + rng.Int63n(old[1]) - rng.Int63n(8), 1 + rng.Int63n(80)}
		default: // backwards: one-block runs, descending
			old := runs[rng.Intn(prev)]
			for b := old[0] + old[1] - 1; b > old[0]; b-- {
				runs = append(runs, [2]int64{b, 1})
				n++
			}
			r = [2]int64{old[0], 1}
		}
		runs = append(runs, r)
		n += int(r[1])
	}
	return runs
}

// TestRunFedProfilersMatchBlockFedAndBank is the run path's property: a
// log recorded run by run and profiled run by run (ProfileOrgs) answers
// exactly what the same stream fed block by block answers, at every way
// count, and both equal the bank — with the window mark in the middle of
// a run, enough accesses for compactions (many in the long trials), and
// spec lists whose Sets=1 family is unbounded (takes runs whole), marker
// lists down to 1,024 lines (does not), or absent. The run-recorded log also holds exactly the
// bytes of the same stream recorded block by block: both store the
// stream's maximal runs.
func TestRunFedProfilersMatchBlockFedAndBank(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	trials := 12
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		accesses := 3000 + rng.Intn(6000)
		if trial%3 == 2 {
			accesses = 40000
		}
		runs := runStream(rng, accesses, trial%4)
		specs := [][]trace.OrgSpec{
			{{Sets: 1}},
			{{Sets: 1}, {Sets: 1, FIFOWays: []int64{3, 64}}, {Sets: 4, LRUWays: []int64{4, 1}}, {Sets: 3, LRUWays: everyKindWays}},
			{{Sets: 1, LRUWays: []int64{16, 1024, 300}, FIFOWays: []int64{16}}, {Sets: 2, LRUWays: everyKindWays}},
			{{Sets: 5, FIFOWays: []int64{2}, LRUWays: everyKindWays}},
		}[trial%4]

		byRun, byBlock := trace.NewLog(), trace.NewLog()
		var stream []int64
		markAt := rng.Intn(len(runs))
		warm := 0
		for i, r := range runs {
			cut := int64(0)
			if i == markAt {
				cut = rng.Int63n(r[1] + 1) // 0 and r[1] put the mark between runs
				warm = len(stream) + int(cut)
			}
			byRun.RecordRun(r[0], cut)
			for b := r[0]; b < r[0]+r[1]; b++ {
				if i == markAt && b == r[0]+cut {
					byRun.MarkWindow()
					byBlock.MarkWindow()
				}
				byBlock.RecordRun(b, 1)
				stream = append(stream, b)
			}
			if i == markAt && cut == r[1] {
				byRun.MarkWindow()
				byBlock.MarkWindow()
			}
			byRun.RecordRun(r[0]+cut, r[1]-cut)
		}
		label := fmt.Sprintf("trial %d (ids %d, %d accesses in %d runs, warm %d)", trial, trial%4, len(stream), len(runs), warm)
		if byRun.Len() != int64(len(stream)) || byRun.EncodedBytes() != byBlock.EncodedBytes() || byRun.WindowStart() != int64(warm) {
			t.Fatalf("%s: run-recorded log has %d accesses in %d bytes, window %d; block-recorded %d in %d, window %d", label,
				byRun.Len(), byRun.EncodedBytes(), byRun.WindowStart(), byBlock.Len(), byBlock.EncodedBytes(), byBlock.WindowStart())
		}
		var replayed []int64
		if err := byRun.ForEach(func(blk int64) { replayed = append(replayed, blk) }); err != nil {
			t.Fatal(err)
		}
		for i := range stream {
			if replayed[i] != stream[i] {
				t.Fatalf("%s: replay differs from the recorded stream at access %d", label, i)
			}
		}

		runFed, err := trace.ProfileOrgs(byRun, specs)
		if err != nil {
			t.Fatal(err)
		}
		p, err := trace.NewOrgProfilers(specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, blk := range stream {
			if i == warm {
				p.ResetCounts()
			}
			p.Touch(blk)
		}
		if warm >= len(stream) {
			p.ResetCounts()
		}
		blockFed := p.Curves()
		for i, spec := range specs {
			ways := spec.LRUWays
			if len(ways) == 0 {
				for w := int64(1); w <= 13000; w++ { // past any footprint a stream has
					ways = append(ways, w)
				}
			}
			for _, w := range ways {
				if a, b := runFed[i].LRU.Misses(w), blockFed[i].LRU.Misses(w); a != b {
					t.Fatalf("%s spec %d ways %d: run-fed %d misses, block-fed %d", label, i, w, a, b)
				}
			}
			for _, w := range spec.FIFOWays {
				a, _ := runFed[i].Misses(w, true)
				if b, _ := blockFed[i].Misses(w, true); a != b {
					t.Fatalf("%s spec %d FIFO ways %d: run-fed %d misses, block-fed %d", label, i, w, a, b)
				}
			}
		}
		checkOrgCurves(t, label, stream, warm, specs, runFed)
		for _, lines := range []int64{64, 300, 2000} {
			if specs[0].Sets == 1 && len(specs[0].LRUWays) == 0 {
				if got, want := runFed[0].LRU.Misses(lines), bankMisses(stream, warm, 1, lines, cachesim.LRU); got != want {
					t.Fatalf("%s: fully associative at %d lines: run-fed %d, bank %d", label, lines, got, want)
				}
			}
		}
	}
}
