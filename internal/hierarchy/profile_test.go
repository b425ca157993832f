package hierarchy

import (
	"math/rand"
	"reflect"
	"strings"
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

// oracleL2s is the L2 grid the simulator cross-checks sweep on top of
// testSpec's: everything the per-ratio organisation profilers branch on.
// Block ratios 1, 2 and 4 in one grid; LRU and FIFO points that share a set
// count and ones that have theirs to themselves; way counts on both sides
// of the row/marker crossover (rows, fully-associative marker lists down to
// 1,024 lines, two-set ones 256 deep); two ratios whose specs share a set
// count but list different way counts; plus a few random points, one
// duplicate, shuffled.
func oracleL2s(rng *rand.Rand, block int64) []Level {
	at := func(ratio, sets, ways int64, pol cachesim.Policy) Level {
		return lv(sets*ways*ratio*block, ratio*block, ways, pol)
	}
	l2s := []Level{
		at(1, 8, 4, cachesim.LRU), // ratio 1, 8 sets, bound 4 ...
		at(1, 8, 4, cachesim.FIFO),
		at(1, 8, 2, cachesim.FIFO),
		at(2, 8, 16, cachesim.LRU),             // ... ratio 2, 8 sets, bound 16
		at(2, 4, 8, cachesim.FIFO),             // FIFO alone at its set count
		lv(256*block, block, 0, cachesim.LRU),  // Sets=1 marker lists ...
		lv(256*block, block, 0, cachesim.FIFO), // and its FIFO twin
		lv(1024*block, block, 0, cachesim.LRU), // ... 1,024 lines deep
		lv(64*2*block, 2*block, 0, cachesim.LRU),
		at(2, 2, 256, cachesim.LRU), // two sets, 256 deep
		at(4, 2, 256, cachesim.LRU),
		at(4, 1, 32, cachesim.LRU),  // Sets=1 under the bound, as explicit ways
		at(4, 16, 1, cachesim.FIFO), // direct-mapped
	}
	for k := rng.Intn(4); k > 0; k-- {
		ratio := int64(1) << rng.Intn(3)
		sets := int64(1) << rng.Intn(5)
		ways := []int64{1, 2, 3, 8, 200}[rng.Intn(5)]
		l2s = append(l2s, at(ratio, sets, ways, cachesim.Policy(rng.Intn(2))))
	}
	l2s = append(l2s, l2s[rng.Intn(len(l2s))])
	rng.Shuffle(len(l2s), func(i, j int) { l2s[i], l2s[j] = l2s[j], l2s[i] })
	return l2s
}

// scatter rewrites a dense stream's ids so it also exercises the id paths
// a schedule's buffers never reach: a band of negative ids (floored
// coarsening and set routing) and a band of sparse ones far past the
// profilers' dense block tables.
func scatter(blocks []int64) []int64 {
	out := make([]int64, len(blocks))
	for i, b := range blocks {
		switch b % 5 {
		case 1:
			out[i] = -b - 1
		case 2:
			out[i] = 1<<30 + b*1000003
		default:
			out[i] = b
		}
	}
	return out
}

// hierCase is one input of TestProfileHierMatchesSimulator.
type hierCase struct {
	name   string
	spec   HierSpec
	blocks []int64
	warm   int
	long   bool
}

func hierCases() []hierCase {
	var cases []hierCase
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cases = append(cases, hierCase{name: "testSpec", spec: testSpec(), blocks: stream(rng, 20000, 300), warm: 5000})
	}
	rng := rand.New(rand.NewSource(40))
	l1s := testSpec().L1s
	for trial := 0; trial < 6; trial++ {
		n := 3000
		c := hierCase{name: "oracleL2s", long: trial%3 == 2}
		c.spec = HierSpec{Block: 16, L1s: l1s, L2s: oracleL2s(rng, 16)}
		if c.long {
			n = 40000 // long enough for the timeline stacks to compact
			c.spec.L1s = l1s[2:4]
		}
		c.blocks = scatter(stream(rng, n, int64(100+rng.Intn(500))))
		c.warm = []int{0, n / 3, n, n + 1}[trial%4]
		cases = append(cases, c)
	}
	return cases
}

// TestProfileHierMatchesSimulator is the package's core exactness check:
// every grid point of the one-pass profile equals a fresh pointwise replay
// through the two-level simulator, warm window included — on the standard
// grid, and on oracleL2s grids over scattered ids with the window mark at
// 0, mid-stream and at/past the end, over short traces and long ones.
func TestProfileHierMatchesSimulator(t *testing.T) {
	for ci, c := range hierCases() {
		l := recordLog(c.blocks, c.warm)
		spec := c.spec
		hc, err := ProfileHier(l, spec)
		if err != nil {
			t.Fatalf("case %d (%s): %v", ci, c.name, err)
		}
		if want := int64(max(len(c.blocks)-c.warm, 0)); hc.Accesses != want {
			t.Errorf("case %d: windowed accesses = %d, want %d", ci, hc.Accesses, want)
		}
		for i := range spec.L1s {
			for j := range spec.L2s {
				sim, err := SimulateLog(l, spec.Config(i, j))
				if err != nil {
					t.Fatalf("case %d (%d,%d): %v", ci, i, j, err)
				}
				l1, l2 := hc.Point(i, j)
				if l1 != sim.L1Stats().Misses || l2 != sim.L2Stats().Misses {
					t.Errorf("case %d (%s, warm %d of %d) L1=%v L2=%v: curve (%d, %d), simulator (%d, %d)",
						ci, c.name, c.warm, len(c.blocks), spec.L1s[i], spec.L2s[j], l1, l2,
						sim.L1Stats().Misses, sim.L2Stats().Misses)
				}
				if got, want := hc.AMAT(i, j, DefaultCostModel), sim.AMAT(DefaultCostModel); got != want {
					t.Errorf("case %d (%d,%d): AMAT %v vs %v", ci, i, j, got, want)
				}
			}
		}
	}
}

// TestProfileHierFilterCrossCheck trips the two retained in-band checks: a
// pass whose filter reads the wrong threshold, or whose L2 stage saw a
// stream other than its filter's, must fail, not report a number.
func TestProfileHierFilterCrossCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	l := recordLog(stream(rng, 2000, 100), 500)
	spec := testSpec()
	build := func() *HierProfiler {
		h, err := NewHierProfiler(spec)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	profileHier := func(l *trace.Log, h *HierProfiler) (*HierCurves, error) {
		l.ForEachRunWindowed(h.ResetCounts, h.RecordRun)
		return h.Curves(nil)
	}
	if _, err := profileHier(l, build()); err != nil {
		t.Fatalf("unperturbed stage: %v", err)
	}

	// Point 2 (4-way LRU) reads its FIFO twin's verdict (point 3, the same
	// family): every access the two policies decide differently becomes a
	// miss the point's curve does not count, or the reverse.
	h := build()
	st, l1 := h.st, spec.L1s[2]
	pt, ok := st.orgs[0].Point(st.specIdx[l1.Sets()], l1.EffWays(), true)
	if !ok {
		t.Fatal("no FIFO twin of L1 point 2")
	}
	st.filters[2].point = pt
	hc, err := profileHier(l, h)
	if err == nil || !strings.Contains(err.Error(), "filter saw") || !strings.Contains(err.Error(), "curve says") {
		t.Fatalf("perturbed threshold: got curves %v, err %v; want the filter-vs-curve error", hc, err)
	}
	if !strings.Contains(err.Error(), "L1 point 2 ") {
		t.Errorf("error %q does not name the perturbed point", err)
	}

	// Point 3's first L2 stage is also fed point 1's misses: its counted
	// accesses no longer add up to what filter 3 emitted.
	h = build()
	h.st.filters[1].l2[0].prof = h.st.filters[3].l2[0].prof
	hc, err = profileHier(l, h)
	if err == nil || !strings.Contains(err.Error(), "emitted") || !strings.Contains(err.Error(), "counted") {
		t.Fatalf("cross-fed L2 stage: got curves %v, err %v; want the L2 conservation error", hc, err)
	}
	if !strings.Contains(err.Error(), "L1 point 1:") {
		t.Errorf("error %q does not name the first point whose stage disagrees", err)
	}
}

// checkHierJobsShim asserts every (jobs, decodeJobs) of the deprecated
// four-argument form returns ProfileHier's curves.
func checkHierJobsShim(t *testing.T, l *trace.Log, spec HierSpec) {
	t.Helper()
	want, err := ProfileHier(l, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, jd := range [][2]int{{0, 0}, {1, 1}, {4, 4}} {
		got, err := ProfileHierJobs(l, spec, jd[0], jd[1])
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ProfileHierJobs(%d, %d) differs from ProfileHier (err %v)", jd[0], jd[1], err)
		}
	}
}

func TestProfileHierJobsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	checkHierJobsShim(t, recordLog(stream(rng, 4000, 300), 1000), testSpec())
}

// TestProfileHierJobsEmptyWindow: the same on a window marked at the end.
func TestProfileHierJobsEmptyWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	checkHierJobsShim(t, recordLog(stream(rng, 2000, 100), 2000), testSpec())
}

// TestProfileHierSpillIdentical: streamed == replayed. A HierProfiler fed
// the accesses as they are recorded — the way an execution machine drives
// it in schedule.MeasureHier, with ResetCounts as the window mark —
// answers exactly what ProfileHier answers over an in-memory Log recorded
// through the same window, with the mark mid-trace; and the replay reads
// the log exactly once.
func TestProfileHierSpillIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	spec := testSpec()
	live, err := NewHierProfiler(spec)
	if err != nil {
		t.Fatal(err)
	}
	l := trace.NewLog()
	for i := 0; l.Len() < 30000; i++ {
		if i == 2000 {
			live.ResetCounts()
			l.MarkWindow()
		}
		base, n := rng.Int63n(500), 1+rng.Int63n(8)
		live.RecordRun(base, n)
		l.RecordRun(base, n)
	}
	streamed, err := live.Curves(nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ProfileHier(l, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, replayed) {
		t.Errorf("streamed curves differ from replayed curves:\nstreamed: %+v\nreplayed: %+v", streamed, replayed)
	}
	if want := l.Len() - l.WindowStart(); streamed.Accesses != want {
		t.Errorf("streamed profile counted %d accesses, window holds %d", streamed.Accesses, want)
	}
	if l.Replays() != 1 {
		t.Errorf("ProfileHier paid %d replays, want 1", l.Replays())
	}
}

// TestProfileHierSinglePass is the replay regression test: the whole
// (L1, L2) grid — organisation curves and filtered L2 profiles — must
// cost exactly one replay of the trace.
func TestProfileHierSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	blocks := stream(rng, 20000, 500)
	l := recordLog(blocks, 4000)
	if _, err := ProfileHier(l, testSpec()); err != nil {
		t.Fatal(err)
	}
	if l.Replays() != 1 {
		t.Errorf("ProfileHier paid %d trace replays, want 1", l.Replays())
	}
	if l.Len() != int64(len(blocks)) {
		t.Errorf("log holds %d accesses, recorded %d", l.Len(), len(blocks))
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
// hierOrgSpecs' LRUWays: each spec lists exactly its L1 points' way
// counts, and bounding the L1 stacks to them leaves every HierCurves
// number what unbounded stacks give. The organisation curves feed
// HierCurves' Accesses and L1Misses
// (and the filter cross-check that fails the whole pass on a mismatch), so
// those are compared against an unbounded trace.ProfileOrgs of the same
// log, on random mixed-policy L1 grids.
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
			var listed []int64
			for _, l1 := range spec.L1s {
				if l1.Sets() == s.Sets {
					listed = append(listed, l1.EffWays())
				}
			}
			if !reflect.DeepEqual(s.LRUWays, listed) {
				t.Fatalf("trial %d: spec sets=%d lists ways %v, its L1 points have %v", trial, s.Sets, s.LRUWays, listed)
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
