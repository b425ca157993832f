package hierarchy

import (
	"math/rand"
	"reflect"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// testSpec is the standard grid the profile tests sweep: direct-mapped,
// set-associative, and fully-associative L1s under both policies, against
// LRU and FIFO L2s including a coarser block size.
func testSpec() HierSpec {
	return HierSpec{
		Block: 16,
		L1s: []Level{
			lv(16*16, 16, 1, cachesim.LRU),  // direct-mapped
			lv(16*16, 16, 0, cachesim.LRU),  // fully associative
			lv(32*16, 16, 4, cachesim.LRU),  // set-associative
			lv(32*16, 16, 4, cachesim.FIFO), // FIFO L1
			lv(16, 16, 1, cachesim.LRU),     // single line (Capacity == Block)
		},
		L2s: []Level{
			lv(128*16, 16, 0, cachesim.LRU),  // FA LRU, same block
			lv(128*16, 16, 8, cachesim.LRU),  // 8-way LRU
			lv(128*16, 16, 8, cachesim.FIFO), // 8-way FIFO, same family as above
			lv(64*64, 64, 0, cachesim.LRU),   // FA LRU, coarse block
			lv(64*64, 64, 4, cachesim.FIFO),  // FIFO, coarse block
		},
	}
}

// recordLog turns a block stream into a Log with a measured window after
// the first warm accesses.
func recordLog(blocks []int64, warm int) *trace.Log {
	l := trace.NewLog()
	for i, blk := range blocks {
		if i == warm {
			l.MarkWindow()
		}
		l.RecordBlock(blk)
	}
	if warm >= len(blocks) {
		l.MarkWindow()
	}
	return l
}

// TestProfileHierMatchesSimulator is the package's core exactness check:
// every grid point of the one-pass profile equals a fresh pointwise replay
// through the two-level simulator, warm window included.
func TestProfileHierMatchesSimulator(t *testing.T) {
	spec := testSpec()
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		blocks := stream(rng, 20000, 300)
		l := recordLog(blocks, 5000)
		hc, err := ProfileHier(l, spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if hc.Accesses != 15000 {
			t.Errorf("seed %d: windowed accesses = %d, want 15000", seed, hc.Accesses)
		}
		for i := range spec.L1s {
			for j := range spec.L2s {
				sim, err := SimulateLog(l, spec.Config(i, j))
				if err != nil {
					t.Fatalf("seed %d (%d,%d): %v", seed, i, j, err)
				}
				l1, l2 := hc.Point(i, j)
				if l1 != sim.L1Stats().Misses || l2 != sim.L2Stats().Misses {
					t.Errorf("seed %d L1=%v L2=%v: curve (%d, %d), simulator (%d, %d)",
						seed, spec.L1s[i], spec.L2s[j], l1, l2,
						sim.L1Stats().Misses, sim.L2Stats().Misses)
				}
				if got, want := hc.AMAT(i, j, DefaultCostModel), sim.AMAT(DefaultCostModel); got != want {
					t.Errorf("seed %d (%d,%d): AMAT %v vs %v", seed, i, j, got, want)
				}
			}
		}
	}
}

// TestProfileHierSpillIdentical is the spill × hierarchy-profiling
// regression test: a log that spilled to disk must profile into exactly
// the same curves as the identical in-memory log.
func TestProfileHierSpillIdentical(t *testing.T) {
	// Long enough that several 64 KiB chunks seal and cross the threshold.
	rng := rand.New(rand.NewSource(21))
	blocks := stream(rng, 300000, 500)
	mem := recordLog(blocks, 4000)
	spilled := trace.NewLog()
	spilled.SetSpillThreshold(1 << 12) // force many spill flushes
	for i, blk := range blocks {
		if i == 4000 {
			spilled.MarkWindow()
		}
		spilled.RecordBlock(blk)
	}
	defer spilled.Close()
	if !spilled.Spilled() {
		t.Fatal("spill threshold never triggered; the test is vacuous")
	}
	spec := testSpec()
	a, err := ProfileHier(mem, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProfileHier(spilled, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("spill-backed curves differ from in-memory curves:\nmem: %+v\nspill: %+v", a, b)
	}
}

// TestProfileHierSinglePass is the replay-I/O regression test: the whole
// (L1, L2) grid — organisation curves and filtered L2 profiles — must
// cost exactly one decode of the trace. On a spilled trace every replay
// is a full re-read of the spill file, so a second pass would double the
// profiling path's disk I/O.
func TestProfileHierSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	blocks := stream(rng, 300000, 500)
	spilled := trace.NewLog()
	spilled.SetSpillThreshold(1 << 12)
	for i, blk := range blocks {
		if i == 4000 {
			spilled.MarkWindow()
		}
		spilled.RecordBlock(blk)
	}
	defer spilled.Close()
	if !spilled.Spilled() {
		t.Fatal("spill threshold never triggered; the test is vacuous")
	}
	if _, err := ProfileHier(spilled, testSpec()); err != nil {
		t.Fatal(err)
	}
	st := spilled.Stats()
	if st.Replays != 1 {
		t.Errorf("ProfileHier paid %d trace replays, want 1", st.Replays)
	}
	if st.Accesses != int64(len(blocks)) {
		t.Errorf("stats count %d accesses, recorded %d", st.Accesses, len(blocks))
	}
	if st.SpilledBytes == 0 {
		t.Error("stats report no spilled bytes on a spilled trace")
	}
	if st.Chunks == 0 || st.SpilledBytes > int64(st.Chunks)*(64<<10) {
		t.Errorf("stats inconsistent: %d chunks sealed for %d spilled bytes", st.Chunks, st.SpilledBytes)
	}
}

func TestHierSpecValidate(t *testing.T) {
	ok := testSpec()
	if err := ok.Validate(); err != nil {
		t.Errorf("valid spec rejected: %v", err)
	}
	bad := []HierSpec{
		{Block: 0, L1s: ok.L1s, L2s: ok.L2s},
		{Block: 16, L1s: nil, L2s: ok.L2s},
		{Block: 16, L1s: ok.L1s, L2s: nil},
		{Block: 16, L1s: []Level{lv(256, 32, 0, cachesim.LRU)}, L2s: ok.L2s}, // L1 block != recording block
		{Block: 16, L1s: ok.L1s, L2s: []Level{lv(240, 24, 0, cachesim.LRU)}}, // L2 block % 16
		{Block: 16, L1s: []Level{lv(250, 16, 0, cachesim.LRU)}, L2s: ok.L2s}, // bad geometry
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
	if _, err := ProfileHier(trace.NewLog(), bad[0]); err == nil {
		t.Error("ProfileHier accepted an invalid spec")
	}
}

// TestProfileHierEmptyWindow: marking the window at the end counts nothing.
func TestProfileHierEmptyWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := recordLog(stream(rng, 2000, 100), 2000)
	hc, err := ProfileHier(l, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if hc.Accesses != 0 {
		t.Errorf("accesses = %d, want 0", hc.Accesses)
	}
	for i, m := range hc.L1Misses {
		if m != 0 {
			t.Errorf("L1[%d] misses = %d, want 0", i, m)
		}
		for j, m2 := range hc.L2Misses[i] {
			if m2 != 0 {
				t.Errorf("point (%d,%d) L2 misses = %d, want 0", i, j, m2)
			}
		}
	}
}

// TestPropHierOrgSpecsBoundChangesNothing is the property behind
// hierOrgSpecs' MaxWays: truncating the L1 stacks at the deepest way count
// the grid evaluates leaves every HierCurves number what unbounded stacks
// give. The organisation curves feed HierCurves' Accesses and L1Misses
// (and the filter cross-check that fails the whole pass on a mismatch), so
// those are compared against an unbounded trace.ProfileOrgs of the same
// log, on random mixed-policy L1 grids, sequential and sharded.
// SharedCurves has no organisation curves to bound: ProfileShared's L1
// counts come from the per-processor filter banks alone.
func TestPropHierOrgSpecsBoundChangesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	lineCounts := []int64{1, 4, 8, 16, 32}
	for trial := 0; trial < 12; trial++ {
		spec := HierSpec{Block: 16, L2s: []Level{lv(128*16, 16, 8, cachesim.LRU), lv(64*64, 64, 0, cachesim.FIFO)}}
		for k := 2 + rng.Intn(5); k > 0; k-- {
			lines := lineCounts[rng.Intn(len(lineCounts))]
			ways := []int64{0, 1, lines}[rng.Intn(3)]
			if lines%2 == 0 && rng.Intn(2) == 0 {
				ways = 2
			}
			spec.L1s = append(spec.L1s, lv(lines*16, 16, ways, cachesim.Policy(rng.Intn(2))))
		}
		bounded, specIdx := hierOrgSpecs(spec.L1s)
		unbounded := make([]trace.OrgSpec, len(bounded))
		for i, s := range bounded {
			var deepest int64
			for _, l1 := range spec.L1s {
				if l1.Sets() == s.Sets && l1.EffWays() > deepest {
					deepest = l1.EffWays()
				}
			}
			if s.MaxWays != deepest {
				t.Fatalf("trial %d: spec sets=%d bounded at %d ways, deepest L1 point has %d", trial, s.Sets, s.MaxWays, deepest)
			}
			unbounded[i] = trace.OrgSpec{Sets: s.Sets, FIFOWays: s.FIFOWays}
		}
		n := 3000
		l := recordLog(stream(rng, n, int64(20+rng.Intn(200))), rng.Intn(n+1))
		ref, err := trace.ProfileOrgs(l, unbounded)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := ProfileHier(l, spec)
		if err != nil {
			t.Fatalf("trial %d L1s %v: %v", trial, spec.L1s, err)
		}
		sharded, err := ProfileHierJobs(l, spec, 2, 1)
		if err != nil {
			t.Fatalf("trial %d L1s %v sharded: %v", trial, spec.L1s, err)
		}
		if !reflect.DeepEqual(seq, sharded) {
			t.Fatalf("trial %d: sharded hier curves differ from sequential", trial)
		}
		if seq.Accesses != ref[0].LRU.Accesses {
			t.Fatalf("trial %d: %d accesses, unbounded profile %d", trial, seq.Accesses, ref[0].LRU.Accesses)
		}
		for i, l1 := range spec.L1s {
			want, ok := ref[specIdx[l1.Sets()]].Misses(l1.EffWays(), l1.Policy == cachesim.FIFO)
			if !ok || seq.L1Misses[i] != want {
				t.Fatalf("trial %d L1 %v: bounded %d misses, unbounded %d (ok=%v)", trial, l1, seq.L1Misses[i], want, ok)
			}
		}
	}
}
