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
// A non-nil live profiler is fed every access as it is recorded, with its
// ResetCounts at the mark.
func procTrace(t *testing.T, rng *rand.Rand, procs, n int, nblocks int64, live *SharedProfiler) *trace.ProcLog {
	t.Helper()
	return procTraceAt(t, rng, procs, n, nblocks, live, procs*n/4, false)
}

// procTraceAt is procTrace with the window mark at global index warm (at or
// past the end: an empty window) and, when scattered, the ids rewritten by
// scatter into negative and sparse bands.
func procTraceAt(t *testing.T, rng *rand.Rand, procs, n int, nblocks int64, live *SharedProfiler, warm int, scattered bool) *trace.ProcLog {
	t.Helper()
	pl, err := trace.NewProcLog(procs)
	if err != nil {
		t.Fatal(err)
	}
	mark, record := pl.MarkWindow, pl.Record
	if live != nil {
		mark = func() {
			pl.MarkWindow()
			live.ResetCounts()
		}
		record = func(proc int, blk int64) {
			pl.Record(proc, blk)
			live.RecordRun(proc, blk, 1)
		}
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
			mark()
		}
		record(cur, streams[cur][pos[cur]])
		pos[cur]++
	}
	if warm >= total {
		mark()
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
	pl := procTrace(t, rng, 3, 8000, 64, nil)
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
// mark at 0, mid-stream and at/past the end, over short traces and long
// ones.
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
				pl = procTrace(t, rng, procs, 6000, 96, nil)
			} else {
				n := 2000
				if trial%3 == 2 {
					n = 40000 / procs // long enough for the timeline stacks to compact
					spec.L1s = l1s[1:]
				}
				spec.L2s = oracleL2s(rng, 16)
				warm := []int{0, procs * n / 3, procs * n, procs*n + 1}[trial%4]
				pl = procTraceAt(t, rng, procs, n, 96, nil, warm, true)
				trial++
			}
			checkSharedAgainstSimulator(t, pl, spec)
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
	pl := procTrace(t, rng, 2, 3000, 96, nil)
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

// TestProfileSharedSpilled: streamed == replayed. A SharedProfiler fed the
// interleaved accesses as they are recorded — the way the parallel
// executor drives it in parallel.MeasureShared, with ResetCounts as the
// window mark — answers exactly what ProfileShared answers over the
// in-memory ProcLog recorded through the same window; and the replay reads
// the trace exactly once.
func TestProfileSharedSpilled(t *testing.T) {
	spec := SharedSpec{
		Block: 16,
		Procs: 2,
		L1s:   []Level{lv(8*16, 16, 0, cachesim.LRU), lv(16*16, 16, 1, cachesim.LRU), lv(16*16, 16, 2, cachesim.FIFO)},
		L2s:   []Level{lv(64*16, 16, 0, cachesim.LRU), lv(64*64, 64, 0, cachesim.LRU), lv(64*64, 64, 2, cachesim.FIFO)},
	}
	live, err := NewSharedProfiler(spec)
	if err != nil {
		t.Fatal(err)
	}
	pl := procTrace(t, rand.New(rand.NewSource(15)), 2, 10000, 128, live)
	streamed, err := live.Curves(nil)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ProfileShared(pl, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(streamed, replayed) {
		t.Errorf("streamed curves differ from replayed curves:\nstreamed: %+v\nreplayed: %+v", streamed, replayed)
	}
	if want := pl.Len() - pl.WindowStart(); streamed.Accesses != want {
		t.Errorf("streamed profile counted %d accesses, window holds %d", streamed.Accesses, want)
	}
	if pl.Replays() != 1 {
		t.Errorf("ProfileShared paid %d replays, want 1", pl.Replays())
	}
}

// TestProfileSharedRejectsMismatch: spec/trace processor-count mismatches
// and malformed specs are refused.
func TestProfileSharedRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	pl := procTrace(t, rng, 2, 500, 32, nil)
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
