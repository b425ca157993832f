package hierarchy

import (
	"math/rand"
	"reflect"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// procTrace records a random interleaving of per-processor streaming
// traces into a ProcLog, marking a window a quarter of the way through.
func procTrace(t *testing.T, rng *rand.Rand, procs, n int, nblocks int64, spill int64) *trace.ProcLog {
	t.Helper()
	return procTraceAt(t, rng, procs, n, nblocks, spill, procs*n/4, false)
}

// procTraceAt is procTrace with the window mark at global index warm (at or
// past the end: an empty window) and, when scattered, the ids rewritten by
// scatter into negative and sparse bands.
func procTraceAt(t *testing.T, rng *rand.Rand, procs, n int, nblocks int64, spill int64, warm int, scattered bool) *trace.ProcLog {
	t.Helper()
	pl, err := trace.NewProcLog(procs)
	if err != nil {
		t.Fatal(err)
	}
	if spill > 0 {
		pl.SetSpillThreshold(spill)
	}
	streams := make([][]int64, procs)
	for p := range streams {
		// Disjoint-ish block ranges per processor plus a shared hot set,
		// the shape private L1s + one shared L2 actually see.
		base := int64(p) * nblocks
		for _, b := range stream(rng, n, nblocks) {
			if rng.Intn(3) == 0 {
				streams[p] = append(streams[p], b%8) // shared hot blocks
			} else {
				streams[p] = append(streams[p], base+b)
			}
		}
		if scattered {
			streams[p] = scatter(streams[p])
		}
	}
	pos := make([]int, procs)
	cur := 0
	total := procs * n
	for i := 0; i < total; i++ {
		if rng.Intn(6) == 0 {
			cur = rng.Intn(procs)
		}
		if pos[cur] == n { // this stream is drained; find another
			for p := range pos {
				if pos[p] < n {
					cur = p
					break
				}
			}
		}
		if i == warm {
			pl.MarkWindow()
		}
		pl.Record(cur, streams[cur][pos[cur]])
		pos[cur]++
	}
	if warm >= total {
		pl.MarkWindow()
	}
	return pl
}

func TestSharedConfigValidate(t *testing.T) {
	good := SharedConfig{Procs: 2, L1: lv(256, 16, 0, cachesim.LRU), L2: lv(1024, 64, 4, cachesim.LRU)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := []SharedConfig{
		{Procs: 0, L1: lv(256, 16, 0, cachesim.LRU), L2: lv(1024, 16, 0, cachesim.LRU)},
		{Procs: 2, L1: lv(0, 16, 0, cachesim.LRU), L2: lv(1024, 16, 0, cachesim.LRU)},
		{Procs: 2, L1: lv(256, 16, 0, cachesim.LRU), L2: lv(1024, 24, 0, cachesim.LRU)},
		{Procs: 2, L1: lv(256, 64, 0, cachesim.LRU), L2: lv(1024, 16, 0, cachesim.LRU)},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

// TestSharedSimP1EqualsSim: with one processor the shared hierarchy is
// exactly the non-inclusive two-level simulator — same per-level counters
// on the same stream.
func TestSharedSimP1EqualsSim(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	blocks := stream(rng, 40000, 400)
	for _, pol := range []cachesim.Policy{cachesim.LRU, cachesim.FIFO} {
		for _, l2block := range []int64{16, 64} {
			shared, err := NewSharedSim(SharedConfig{
				Procs: 1,
				L1:    lv(32*16, 16, 4, pol),
				L2:    lv(4096, l2block, 0, cachesim.LRU),
			})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := NewSim(Config{
				L1:   lv(32*16, 16, 4, pol),
				L2:   lv(4096, l2block, 0, cachesim.LRU),
				Mode: NonInclusive,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range blocks {
				shared.Access(0, b)
				ref.Access(b)
			}
			if shared.L1Stats(0) != ref.L1Stats() {
				t.Errorf("pol=%v l2block=%d: L1 %+v != %+v", pol, l2block, shared.L1Stats(0), ref.L1Stats())
			}
			if shared.L2Stats() != ref.L2Stats() {
				t.Errorf("pol=%v l2block=%d: L2 %+v != %+v", pol, l2block, shared.L2Stats(), ref.L2Stats())
			}
			if shared.AMAT(DefaultCostModel) != ref.AMAT(DefaultCostModel) {
				t.Errorf("pol=%v l2block=%d: AMAT diverges", pol, l2block)
			}
			// With one processor the makespan is the whole cost.
			cm := DefaultCostModel
			if shared.Makespan(cm) != shared.ProcCost(0, cm) {
				t.Errorf("P=1 makespan != proc cost")
			}
		}
	}
}

// TestSharedSimIdenticalStreams: processors fed the same stream in
// round-robin lockstep behave identically at the L1 (same per-processor
// counters), and the shared L2 absorbs the duplication — every processor
// after the first hits what its predecessor just filled, so L2 misses
// match a single processor's run of the same stream.
func TestSharedSimIdenticalStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	blocks := stream(rng, 20000, 300)
	const procs = 4
	shared, err := NewSharedSim(SharedConfig{
		Procs: procs,
		L1:    lv(16*16, 16, 0, cachesim.LRU),
		L2:    lv(8192, 16, 0, cachesim.LRU),
	})
	if err != nil {
		t.Fatal(err)
	}
	solo, err := NewSharedSim(SharedConfig{
		Procs: 1,
		L1:    lv(16*16, 16, 0, cachesim.LRU),
		L2:    lv(8192, 16, 0, cachesim.LRU),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		for p := 0; p < procs; p++ {
			shared.Access(p, b)
		}
		solo.Access(0, b)
	}
	for p := 1; p < procs; p++ {
		if shared.L1Stats(p) != shared.L1Stats(0) {
			t.Errorf("proc %d L1 %+v != proc 0 %+v", p, shared.L1Stats(p), shared.L1Stats(0))
		}
	}
	if got, want := shared.L2Stats().Misses, solo.L2Stats().Misses; got != want {
		t.Errorf("lockstep identical streams: shared L2 misses %d, solo %d", got, want)
	}
	// All L2 misses are charged to processor 0, the one that runs first in
	// the lockstep interleaving.
	var attributed int64
	for p := 0; p < procs; p++ {
		attributed += shared.ProcL2Stats(p).Misses
	}
	if attributed != shared.L2Stats().Misses {
		t.Errorf("per-proc L2 misses sum %d != aggregate %d", attributed, shared.L2Stats().Misses)
	}
	if shared.ProcL2Stats(0).Misses != shared.L2Stats().Misses {
		t.Errorf("lockstep: first processor should absorb every L2 miss, got %d of %d",
			shared.ProcL2Stats(0).Misses, shared.L2Stats().Misses)
	}
}

// TestSharedSimOneSetL2: an L2 with a single set (fully associative) must
// match an equal-capacity multi-way organisation only when geometry says
// so; here we pin the degenerate single-set case against the Bank-level
// identity: sets=1, ways=lines behaves as one LRU stack shared by all
// processors.
func TestSharedSimOneSetL2(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pl := procTrace(t, rng, 3, 8000, 64, 0)
	oneSet := SharedConfig{Procs: 3, L1: lv(8*16, 16, 1, cachesim.LRU), L2: lv(64*16, 16, 0, cachesim.LRU)}
	full := SharedConfig{Procs: 3, L1: lv(8*16, 16, 1, cachesim.LRU), L2: lv(64*16, 16, 64, cachesim.LRU)}
	a, err := SimulateSharedLog(pl, oneSet)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SimulateSharedLog(pl, full)
	if err != nil {
		t.Fatal(err)
	}
	if a.L2Stats() != b.L2Stats() {
		t.Errorf("one-set FA L2 %+v != ways=lines L2 %+v", a.L2Stats(), b.L2Stats())
	}
}

// TestProfileSharedMatchesSimulator is the package-level cross-validation:
// every (L1, L2) grid point of the one-pass shared profiler agrees exactly
// with the shared simulator — per-processor L1 misses and aggregate L2
// misses — on random interleaved traces, windows included: first the
// standard grid, then oracleL2s grids over scattered ids with the window
// mark at 0, mid-stream and at/past the end, in memory and spilled.
func TestProfileSharedMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	l1s := []Level{
		lv(8*16, 16, 1, cachesim.LRU),
		lv(8*16, 16, 0, cachesim.LRU),
		lv(16*16, 16, 2, cachesim.FIFO),
	}
	l2s := []Level{
		lv(64*16, 16, 0, cachesim.LRU),
		lv(128*64, 64, 4, cachesim.LRU),
		lv(64*64, 64, 2, cachesim.FIFO),
	}
	trial := 0
	for _, procs := range []int{1, 2, 4} {
		for _, oracle := range []bool{false, true, true} {
			var pl *trace.ProcLog
			spec := SharedSpec{Block: 16, Procs: procs, L1s: l1s, L2s: l2s}
			if !oracle {
				pl = procTrace(t, rng, procs, 6000, 96, 0)
			} else {
				n, spill := 2000, int64(0)
				if trial%3 == 2 {
					n, spill = 40000/procs, 1
					spec.L1s = l1s[1:]
				}
				spec.L2s = oracleL2s(rng, 16)
				warm := []int{0, procs * n / 3, procs * n, procs*n + 1}[trial%4]
				pl = procTraceAt(t, rng, procs, n, 96, spill, warm, true)
				if spill > 0 && !pl.Spilled() {
					t.Fatal("spill variant did not spill")
				}
				trial++
			}
			checkSharedAgainstSimulator(t, pl, spec)
			if err := pl.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func checkSharedAgainstSimulator(t *testing.T, pl *trace.ProcLog, spec SharedSpec) {
	t.Helper()
	procs := spec.Procs
	curves, err := ProfileShared(pl, spec)
	if err != nil {
		t.Fatal(err)
	}
	var wantAcc int64
	for p := 0; p < procs; p++ {
		wantAcc += curves.ProcAccesses[p]
	}
	if want := max(pl.Len()-pl.WindowStart(), 0); curves.Accesses != wantAcc || wantAcc != want {
		t.Errorf("procs=%d: accesses %d, per-proc sum %d, window holds %d", procs, curves.Accesses, wantAcc, want)
	}
	for i := range spec.L1s {
		for j := range spec.L2s {
			sim, err := SimulateSharedLog(pl, spec.Config(i, j))
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < procs; p++ {
				if got, want := curves.L1Misses[i][p], sim.L1Stats(p).Misses; got != want {
					t.Errorf("procs=%d point (%d,%d) proc %d: profile L1 misses %d, simulator %d",
						procs, i, j, p, got, want)
				}
			}
			l1, l2 := curves.Point(i, j)
			var simL1 int64
			for p := 0; p < procs; p++ {
				simL1 += sim.L1Stats(p).Misses
			}
			if l1 != simL1 || l2 != sim.L2Stats().Misses {
				t.Errorf("procs=%d window %d of %d L1=%v L2=%v: profile (%d,%d), simulator (%d,%d)",
					procs, pl.WindowStart(), pl.Len(), spec.L1s[i], spec.L2s[j], l1, l2, simL1, sim.L2Stats().Misses)
			}
			if got, want := curves.AMAT(i, j, DefaultCostModel), sim.AMAT(DefaultCostModel); got != want {
				t.Errorf("procs=%d point (%d,%d): profile AMAT %v, simulator %v", procs, i, j, got, want)
			}
		}
	}
}

// TestProfileSharedJobsMatchesSequential pins the deprecated four-argument
// shim: every (jobs, decodeJobs) returns ProfileShared's curves.
func TestProfileSharedJobsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pl := procTrace(t, rng, 2, 3000, 96, 0)
	spec := SharedSpec{Block: 16, Procs: 2,
		L1s: []Level{lv(8*16, 16, 1, cachesim.LRU), lv(16*16, 16, 2, cachesim.FIFO)},
		L2s: []Level{lv(64*16, 16, 0, cachesim.LRU), lv(64*64, 64, 2, cachesim.FIFO)}}
	want, err := ProfileShared(pl, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, jd := range [][2]int{{0, 0}, {1, 1}, {4, 4}} {
		got, err := ProfileSharedJobs(pl, spec, jd[0], jd[1])
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ProfileSharedJobs(%d, %d) differs from ProfileShared (err %v)", jd[0], jd[1], err)
		}
	}
}

// TestProfileSharedSpilled: a spilled interleaved trace profiles
// identically to an in-memory one, and the whole grid costs exactly one
// replay.
func TestProfileSharedSpilled(t *testing.T) {
	mk := func(spill int64) *trace.ProcLog {
		rng := rand.New(rand.NewSource(15))
		return procTrace(t, rng, 2, 60000, 128, spill)
	}
	spec := SharedSpec{
		Block: 16,
		Procs: 2,
		L1s:   []Level{lv(8*16, 16, 0, cachesim.LRU), lv(16*16, 16, 1, cachesim.LRU)},
		L2s:   []Level{lv(64*16, 16, 0, cachesim.LRU), lv(64*64, 64, 0, cachesim.LRU)},
	}
	mem := mk(0)
	spilled := mk(1 << 10)
	if !spilled.Spilled() {
		t.Fatalf("trace did not spill (%d bytes)", spilled.EncodedBytes())
	}
	defer spilled.Close()
	a, err := ProfileShared(mem, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ProfileShared(spilled, spec)
	if err != nil {
		t.Fatal(err)
	}
	st, stMem := spilled.Stats(), mem.Stats()
	if st.Replays != 1 {
		t.Errorf("ProfileShared paid %d replays, want 1", st.Replays)
	}
	if st.Accesses != stMem.Accesses || st.Accesses != spilled.Len() || st.Accesses == 0 {
		t.Errorf("stats count %d accesses, in-memory twin recorded %d", st.Accesses, stMem.Accesses)
	}
	if st.SpilledBytes == 0 {
		t.Error("stats report no spilled bytes on a spilled trace")
	}
	if stMem.SpilledBytes != 0 {
		t.Errorf("in-memory trace claims %d spilled bytes", stMem.SpilledBytes)
	}
	if st.Chunks != stMem.Chunks || st.Chunks == 0 {
		t.Errorf("chunk counts diverge: spilled sealed %d, in-memory %d", st.Chunks, stMem.Chunks)
	}
	for i := range spec.L1s {
		for p := 0; p < spec.Procs; p++ {
			if a.L1Misses[i][p] != b.L1Misses[i][p] {
				t.Errorf("L1 point %d proc %d: mem %d, spilled %d", i, p, a.L1Misses[i][p], b.L1Misses[i][p])
			}
		}
		for j := range spec.L2s {
			if a.L2Misses[i][j] != b.L2Misses[i][j] {
				t.Errorf("point (%d,%d): mem %d, spilled %d", i, j, a.L2Misses[i][j], b.L2Misses[i][j])
			}
		}
	}
}

// TestProfileSharedRejectsMismatch: spec/trace processor-count mismatches
// and malformed specs are refused.
func TestProfileSharedRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pl := procTrace(t, rng, 2, 500, 32, 0)
	ok := SharedSpec{Block: 16, Procs: 2,
		L1s: []Level{lv(128, 16, 0, cachesim.LRU)}, L2s: []Level{lv(1024, 16, 0, cachesim.LRU)}}
	if _, err := ProfileShared(pl, ok); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := ok
	bad.Procs = 3
	if _, err := ProfileShared(pl, bad); err == nil {
		t.Error("processor-count mismatch accepted")
	}
	if _, err := SimulateSharedLog(pl, SharedConfig{Procs: 3, L1: lv(128, 16, 0, cachesim.LRU), L2: lv(1024, 16, 0, cachesim.LRU)}); err == nil {
		t.Error("SimulateSharedLog processor-count mismatch accepted")
	}
	empty := ok
	empty.L2s = nil
	if _, err := ProfileShared(pl, empty); err == nil {
		t.Error("empty L2 grid accepted")
	}
}
