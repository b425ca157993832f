package trace_test

import (
	"math/rand"
	"strings"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// randomStream generates a block-access stream with reuse structure: a mix
// of sequential scans, strided sweeps, and hot-set revisits, over nblocks
// distinct blocks.
func randomStream(rng *rand.Rand, n int, nblocks int64) []int64 {
	out := make([]int64, 0, n)
	cur := rng.Int63n(nblocks)
	for len(out) < n {
		switch rng.Intn(3) {
		case 0: // sequential run
			for r := rng.Intn(16) + 1; r > 0 && len(out) < n; r-- {
				out = append(out, cur)
				cur = (cur + 1) % nblocks
			}
		case 1: // strided sweep
			stride := int64(rng.Intn(7) + 1)
			for r := rng.Intn(12) + 1; r > 0 && len(out) < n; r-- {
				out = append(out, cur)
				cur = (cur + stride) % nblocks
			}
		default: // hot-set revisit
			base := rng.Int63n(nblocks)
			for r := rng.Intn(10) + 1; r > 0 && len(out) < n; r-- {
				out = append(out, (base+int64(rng.Intn(4)))%nblocks)
			}
		}
	}
	return out
}

// simulateMisses replays a block stream through a real cachesim cache with
// the given geometry, resetting stats after the warm prefix, and returns
// the measured-window miss count.
func simulateMisses(t *testing.T, cfg cachesim.Config, stream []int64, warm int) int64 {
	t.Helper()
	c, err := cachesim.New(cfg)
	if err != nil {
		t.Fatalf("cachesim.New(%+v): %v", cfg, err)
	}
	for i, blk := range stream {
		if i == warm {
			c.ResetStats()
		}
		c.AccessBlock(blk, false)
	}
	return c.Stats().Misses
}

// TestOrgCurvesMatchCachesim cross-validates ProfileOrgs against the cache
// simulator on random streams: for every (capacity, ways, policy) geometry
// the one-pass curves must equal the simulator's miss count exactly,
// including the direct-mapped (Ways=1) and Capacity==Block edge cases.
func TestOrgCurvesMatchCachesim(t *testing.T) {
	const block = 16
	type geom struct {
		capacity int64
		ways     int64 // 0 = fully associative
	}
	geoms := []geom{
		{block, 0},      // Capacity == Block, fully associative (1 line)
		{block, 1},      // Capacity == Block, direct-mapped
		{8 * block, 1},  // direct-mapped
		{8 * block, 2},  // 2-way
		{8 * block, 4},  // 4-way
		{8 * block, 0},  // fully associative
		{32 * block, 1}, // larger direct-mapped
		{32 * block, 4},
		{32 * block, 8},
		{32 * block, 0},
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stream := randomStream(rng, 4000, 96)
		warm := 700

		log := trace.NewLog()
		for i, blk := range stream {
			if i == warm {
				log.MarkWindow()
			}
			log.RecordRun(blk, 1)
		}

		// One spec per distinct set count, listing the LRU and FIFO way
		// counts each geometry needs; all profiled from a single replay.
		specIdx := map[int64]int{}
		var specs []trace.OrgSpec
		for _, g := range geoms {
			sets, err := trace.SetsFor(g.capacity, block, g.ways)
			if err != nil {
				t.Fatalf("SetsFor(%d, %d, %d): %v", g.capacity, block, g.ways, err)
			}
			specs = trace.AddPoint(specs, specIdx, sets, trace.EffectiveWays(g.capacity, block, g.ways), true)
		}
		curves, err := trace.ProfileOrgs(log, specs)
		if err != nil {
			t.Fatalf("ProfileOrgs: %v", err)
		}

		for _, g := range geoms {
			sets, _ := trace.SetsFor(g.capacity, block, g.ways)
			ways := g.ways
			if ways == 0 {
				ways = g.capacity / block
			}
			oc := curves[specIdx[sets]]

			lruCfg := cachesim.Config{Capacity: g.capacity, Block: block, Ways: int(g.ways)}
			wantLRU := simulateMisses(t, lruCfg, stream, warm)
			if got := oc.LRU.Misses(ways); got != wantLRU {
				t.Errorf("seed %d cap=%d ways=%d LRU: curve %d, cachesim %d",
					seed, g.capacity, g.ways, got, wantLRU)
			}

			fifoCfg := lruCfg
			fifoCfg.Policy = cachesim.FIFO
			wantFIFO := simulateMisses(t, fifoCfg, stream, warm)
			got, ok := oc.FIFO.Misses(ways)
			if !ok {
				t.Fatalf("seed %d cap=%d ways=%d: FIFO way count not replayed", seed, g.capacity, g.ways)
			}
			if got != wantFIFO {
				t.Errorf("seed %d cap=%d ways=%d FIFO: curve %d, cachesim %d",
					seed, g.capacity, g.ways, got, wantFIFO)
			}
		}
	}
}

// TestAssocCurveFullMatchesMissCurve checks that the Sets==1 family is the
// plain fully-associative profile: AssocCurve.Full() agrees with Profile
// at every capacity.
func TestAssocCurveFullMatchesMissCurve(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stream := randomStream(rng, 3000, 64)
	log := trace.NewLog()
	for i, blk := range stream {
		if i == 500 {
			log.MarkWindow()
		}
		log.RecordRun(blk, 1)
	}
	want := trace.Profile(log)
	curves, err := trace.ProfileOrgs(log, []trace.OrgSpec{{Sets: 1}})
	if err != nil {
		t.Fatal(err)
	}
	full := curves[0].LRU.Full()
	if full == nil {
		t.Fatal("Full() returned nil for a one-set curve")
	}
	if full.Accesses != want.Accesses || full.Cold != want.Cold {
		t.Fatalf("full curve accesses/cold = %d/%d, want %d/%d",
			full.Accesses, full.Cold, want.Accesses, want.Cold)
	}
	for lines := int64(0); lines <= want.SaturationLines()+2; lines++ {
		if full.Misses(lines) != want.Misses(lines) {
			t.Errorf("lines=%d: %d != %d", lines, full.Misses(lines), want.Misses(lines))
		}
	}
	if curves[0].FIFO != nil {
		t.Error("FIFO curve present without requested FIFO way counts")
	}
}

// TestSetsFor checks geometry mapping and its error cases.
func TestSetsFor(t *testing.T) {
	cases := []struct {
		capacity, block, ways int64
		want                  int64
		ok                    bool
	}{
		{1024, 16, 0, 1, true},
		{1024, 16, 1, 64, true},
		{1024, 16, 4, 16, true},
		{1024, 16, 64, 1, true},
		{16, 16, 1, 1, true},
		{16, 16, 0, 1, true},
		{1024, 16, 3, 0, false},  // 64 lines not divisible by 3
		{1024, 16, 65, 0, false}, // more ways than lines
		{1000, 16, 2, 0, false},  // capacity not block-aligned
		{0, 16, 2, 0, false},
		{1024, 0, 2, 0, false},
		{1024, 16, -1, 0, false},
	}
	for _, c := range cases {
		got, err := trace.SetsFor(c.capacity, c.block, c.ways)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("SetsFor(%d,%d,%d) = %d, %v; want %d", c.capacity, c.block, c.ways, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("SetsFor(%d,%d,%d) succeeded, want error", c.capacity, c.block, c.ways)
		}
	}
}

// TestProfileOrgsEmptyWindow checks that a window mark at the end of the
// trace yields zero counted accesses in every curve.
func TestProfileOrgsEmptyWindow(t *testing.T) {
	log := trace.NewLog()
	for _, blk := range []int64{0, 1, 2, 3, 0, 1} {
		log.RecordRun(blk, 1)
	}
	log.MarkWindow()
	curves, err := trace.ProfileOrgs(log, []trace.OrgSpec{{Sets: 2, FIFOWays: []int64{2}, LRUWays: everyKindWays}})
	if err != nil {
		t.Fatal(err)
	}
	if a := curves[0].LRU.Accesses; a != 0 {
		t.Errorf("LRU accesses = %d, want 0", a)
	}
	if m := curves[0].LRU.Misses(1); m != 0 {
		t.Errorf("LRU misses = %d, want 0", m)
	}
	if a := curves[0].FIFO.Accesses; a != 0 {
		t.Errorf("FIFO accesses = %d, want 0", a)
	}
	if m, _ := curves[0].FIFO.Misses(2); m != 0 {
		t.Errorf("FIFO misses = %d, want 0", m)
	}
}

// TestGridSpecs checks the grid-to-spec grouping shared by the CLI, E12,
// and the property tests.
func TestGridSpecs(t *testing.T) {
	specs, idx, err := trace.GridSpecs([]int64{512, 1024}, 16, []int64{0, 4, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	// Set counts: full->1 (both caps); 4-way->8,16; direct->32,64.
	if len(specs) != 5 {
		t.Fatalf("specs = %d, want 5: %+v", len(specs), specs)
	}
	for sets, i := range idx {
		if specs[i].Sets != sets {
			t.Errorf("idx[%d] -> spec with Sets=%d", sets, specs[i].Sets)
		}
	}
	// The fully-associative spec must replay FIFO at both line counts.
	full := specs[idx[1]]
	for _, want := range []int64{32, 64} {
		found := false
		for _, w := range full.FIFOWays {
			found = found || w == want
		}
		if !found {
			t.Errorf("full-assoc spec missing FIFO ways %d: %v", want, full.FIFOWays)
		}
	}
	if _, _, err := trace.GridSpecs([]int64{512}, 16, []int64{3}, false); err == nil {
		t.Error("non-divisible grid accepted")
	}
	if got := trace.EffectiveWays(512, 16, 0); got != 32 {
		t.Errorf("EffectiveWays full = %d, want 32", got)
	}
	if got := trace.EffectiveWays(512, 16, 4); got != 4 {
		t.Errorf("EffectiveWays 4 = %d, want 4", got)
	}
}

// TestOrgCurvesMissesHelper checks the policy-dispatching evaluator.
func TestOrgCurvesMissesHelper(t *testing.T) {
	log := trace.NewLog()
	for _, blk := range []int64{0, 1, 2, 0, 1, 2} {
		log.RecordRun(blk, 1)
	}
	curves, err := trace.ProfileOrgs(log, []trace.OrgSpec{{Sets: 1, FIFOWays: []int64{2}}, {Sets: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := curves[0].Misses(2, false); !ok || m != curves[0].LRU.Misses(2) {
		t.Errorf("LRU dispatch = %d, %v", m, ok)
	}
	wantFIFO, _ := curves[0].FIFO.Misses(2)
	if m, ok := curves[0].Misses(2, true); !ok || m != wantFIFO {
		t.Errorf("FIFO dispatch = %d, %v; want %d", m, ok, wantFIFO)
	}
	if _, ok := curves[0].Misses(3, true); ok {
		t.Error("unreplayed FIFO way count reported ok")
	}
	if _, ok := curves[1].Misses(2, true); ok {
		t.Error("FIFO dispatch ok on a spec without FIFO curves")
	}
}

// TestOrgProfilersPoint checks Point's coverage rule — ok exactly when
// OrgCurves.Misses answers the same (ways, policy) — and that Missed,
// counted per access, adds up to the curve at every covered LRU point of a
// bounded family, an unbounded one, and two specs sharing a family but
// listing different way counts.
func TestOrgProfilersPoint(t *testing.T) {
	specs := []trace.OrgSpec{{Sets: 4, LRUWays: []int64{3, 1}, FIFOWays: []int64{2}}, {Sets: 1}, {Sets: 4, LRUWays: []int64{2}}}
	p, err := trace.NewOrgProfilers(specs)
	if err != nil {
		t.Fatal(err)
	}
	type point struct {
		spec   int
		ways   int64
		fifo   bool
		pt     trace.OrgPoint
		missed int64
	}
	var points []*point
	for spec := range specs {
		for ways := int64(1); ways <= 5; ways++ {
			for _, fifo := range []bool{false, true} {
				if pt, ok := p.Point(spec, ways, fifo); ok {
					points = append(points, &point{spec: spec, ways: ways, fifo: fifo, pt: pt})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i, blk := range randomStream(rng, 4000, 60) {
		if i == 1000 {
			p.ResetCounts()
		}
		p.Touch(blk)
		for _, pt := range points {
			if i >= 1000 && p.Missed(pt.pt) {
				pt.missed++
			}
		}
	}
	curves := p.Curves()
	covered := 0
	for spec := range specs {
		for ways := int64(1); ways <= 5; ways++ {
			for _, fifo := range []bool{false, true} {
				if _, ok := curves[spec].Misses(ways, fifo); ok {
					covered++
				}
			}
		}
	}
	// Sets=4 is one family answering 1, 2 and 3 ways with one FIFO replica;
	// each of its specs names only the way counts and the replica it asked
	// for. Sets=1 answers every LRU way count.
	if want := (2 + 1) + 5 + 1; len(points) != want || covered != want {
		t.Fatalf("Point resolved %d points, the curves cover %d, want %d", len(points), covered, want)
	}
	for _, pt := range points {
		if want, _ := curves[pt.spec].Misses(pt.ways, pt.fifo); pt.missed != want {
			t.Errorf("spec %d ways %d fifo %v: Missed reported %d windowed misses, curve %d", pt.spec, pt.ways, pt.fifo, pt.missed, want)
		}
	}
}

// TestProfileOrgsBadSpec checks spec validation.
func TestProfileOrgsBadSpec(t *testing.T) {
	log := trace.NewLog()
	log.RecordRun(1, 1)
	if _, err := trace.ProfileOrgs(log, []trace.OrgSpec{{Sets: 0}}); err == nil {
		t.Error("Sets=0 accepted")
	}
	if _, err := trace.ProfileOrgs(log, []trace.OrgSpec{{Sets: 2, FIFOWays: []int64{0}, LRUWays: []int64{1}}}); err == nil {
		t.Error("FIFO ways=0 accepted")
	}
	if _, err := trace.ProfileOrgs(log, []trace.OrgSpec{{Sets: 2}}); err == nil || !strings.Contains(err.Error(), "LRUWays") {
		t.Errorf("Sets=2 without LRUWays: %v, want an error naming LRUWays", err)
	}
}
