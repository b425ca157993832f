package hierarchy

import (
	"math/rand"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// procRun is one recorded run of the derived-stream oracle: processor proc
// touches the n blocks base, base+1, …; when 0 <= cut <= n the window mark
// falls after the run's first cut accesses (the last mark wins, as
// MarkWindow does).
type procRun struct {
	proc         int
	base, n, cut int64
}

// checkDerivedMissStream is the oracle the per-point Bank filters used to
// be. It records the runs into a ProcLog, replays it through a real
// SharedProfiler one access at a time, and requires every L1 design
// point's miss events — which accesses, by which processor, to which
// block — to be exactly those of one private cachesim.Bank per (point,
// processor) fed the same replay: bit i of each access's miss mask, the
// one its group's lanes are fed, agrees with the Bank element for element,
// not just in length. The windowed totals collect returns (and its in-band
// check) must then match the Banks' in-window counts.
func checkDerivedMissStream(t testing.TB, procs int, l1s []Level, runs []procRun) {
	t.Helper()
	const block = 16
	pl, err := trace.NewProcLog(procs)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.cut < 0 || r.cut > r.n {
			pl.RecordRun(r.proc, r.base, r.n)
			continue
		}
		pl.RecordRun(r.proc, r.base, r.cut)
		pl.MarkWindow()
		pl.RecordRun(r.proc, r.base+r.cut, r.n-r.cut)
	}
	l2s := []Level{lv(64*block, block, 0, cachesim.LRU), lv(32*4*block, 4*block, 2, cachesim.FIFO)}
	st, err := NewSharedProfiler(SharedSpec{Block: block, Procs: procs, L1s: l1s, L2s: l2s})
	if err != nil {
		t.Fatal(err)
	}
	banks := make([][]*cachesim.Bank, len(l1s))
	want := make([][]int64, len(l1s)) // in-window Bank misses by (point, processor)
	for i, l1 := range l1s {
		banks[i], want[i] = make([]*cachesim.Bank, procs), make([]int64, procs)
		for p := range banks[i] {
			banks[i][p] = l1.bank()
		}
	}
	var at int64
	pl.ForEachRunWindowed(st.ResetCounts, func(proc int, base, n int64) {
		for blk := base; blk < base+n; blk++ {
			st.touch(proc, blk)
			for i := range l1s {
				g := st.groups[i/64]
				derived := st.orgs[proc].MissMask(g.table)>>(i-g.first)&1 == 1
				b := banks[i][proc]
				missed := !b.Access(blk)
				if missed {
					b.Insert(blk)
					if at >= pl.WindowStart() {
						want[i][proc]++
					}
				}
				if derived != missed {
					t.Fatalf("access %d (processor %d, block %d) at L1 point %d %v: derived miss %v, Bank replay %v",
						at, proc, blk, i, l1s[i], derived, missed)
				}
			}
			at++
		}
	})
	if at != pl.Len() {
		t.Fatalf("replayed %d of %d accesses", at, pl.Len())
	}
	got, err := st.collect()
	if err != nil {
		t.Fatal(err)
	}
	l1 := got.L1Misses
	if window := max(pl.Len()-pl.WindowStart(), 0); got.Accesses != window {
		t.Errorf("stage counted %d accesses, window holds %d", got.Accesses, window)
	}
	for i := range l1s {
		for p := 0; p < procs; p++ {
			if l1[i][p] != want[i][p] {
				t.Errorf("L1 point %d %v processor %d: %d windowed misses, Bank replay %d", i, l1s[i], p, l1[i][p], want[i][p])
			}
		}
	}
}

// l1At builds the L1 level of sets x ways lines; a single set is written as
// fully associative (Ways 0) when fa is set.
func l1At(sets, ways int64, pol cachesim.Policy, fa bool) Level {
	l := lv(sets*ways*16, 16, ways, pol)
	if fa && sets == 1 {
		l.Ways = 0
	}
	return l
}

// scatterID maps a small id into one of the id bands the profilers branch
// on: dense, negative reaching across zero, or sparse past the dense
// tables.
func scatterID(style int, id int64) int64 {
	switch style {
	case 1:
		return 40 - id
	case 2:
		return 1<<40 + id*3
	}
	return id
}

// TestDerivedMissStreamMatchesBankReplay is the property behind deleting
// the L1 Bank filters: on random run streams (dense, negative and sparse
// ids; the mark at the start, anywhere inside, at the end, or absent;
// short traces and long ones) and random L1 grids — LRU and FIFO mixed,
// power-of-two and odd set counts, duplicate points, way counts on both
// sides of the row/marker crossover so that bounded rows and marker lists
// both decide misses — for P in {1, 2, 4}, every point's derived miss
// stream is a Bank replay's.
func TestDerivedMissStreamMatchesBankReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	setCounts := []int64{1, 1, 2, 3, 4, 5, 8, 12, 16}
	wayCounts := []int64{1, 2, 3, 4, 8, 32, 192, 193, 256}
	for trial := 0; trial < 60; trial++ {
		procs := []int{1, 2, 4}[trial%3]
		var l1s []Level
		for k := 1 + rng.Intn(7); k > 0; k-- {
			sets, ways := setCounts[rng.Intn(len(setCounts))], wayCounts[rng.Intn(len(wayCounts))]
			if ways > 32 && sets > 2 {
				sets = 1 + sets%2 // keep the deep points' rows small
			}
			l1s = append(l1s, l1At(sets, ways, cachesim.Policy(rng.Intn(2)), rng.Intn(2) == 0))
		}
		l1s = append(l1s, l1s[rng.Intn(len(l1s))]) // a duplicate point
		nblocks := int64(20 + rng.Intn(600))       // past 256 the deepest marker lists drop blocks
		nruns, maxRun := 20+rng.Intn(200), int64(40)
		if trial%20 == 7 {
			nruns, maxRun = 60000, 2 // long enough for the timeline stacks to compact
		}
		var runs []procRun
		for k := nruns; k > 0; k-- {
			r := procRun{proc: rng.Intn(procs), n: 1 + rng.Int63n(maxRun), cut: -1}
			r.base = scatterID(rng.Intn(3), rng.Int63n(nblocks))
			if rng.Intn(3) == 0 {
				r.base = scatterID(rng.Intn(3), rng.Int63n(8)) // a hot set shared by the processors
			}
			runs = append(runs, r)
		}
		switch trial % 5 {
		case 0: // no mark: everything is measured
		case 1:
			runs[0].cut = 0
		case 2:
			runs[len(runs)-1].cut = runs[len(runs)-1].n // empty window
		default:
			r := &runs[rng.Intn(len(runs))]
			r.cut = rng.Int63n(r.n + 1)
		}
		checkDerivedMissStream(t, procs, l1s, runs)
	}
}

// fuzzDerivedCase turns fuzz bytes into a checkDerivedMissStream case.
// Byte 0: processor count (1, 2 or 4), an ignored bit, and how many L1
// points follow, one byte each (set count, way count, policy, fully-associative
// spelling). Then three bytes a run, like the trace package's fuzzRuns:
// id band, mark-inside flag and processor; where the run starts; how long
// it is (1–40).
func fuzzDerivedCase(data []byte) (procs int, l1s []Level, runs []procRun) {
	if len(data) == 0 {
		data = []byte{0}
	}
	procs = []int{1, 2, 4, 2}[data[0]&3]
	points := 1 + int(data[0]>>3)%8
	data = data[1:]
	setCounts := []int64{1, 2, 3, 4, 5, 8, 16, 64}
	wayCounts := []int64{1, 2, 3, 4, 16, 192, 193, 256}
	for ; points > 0; points-- {
		var b byte // missing bytes: a direct-mapped single line
		if len(data) > 0 {
			b, data = data[0], data[1:]
		}
		sets, ways := setCounts[b&7], wayCounts[b>>3&7]
		if ways > 16 && sets > 2 {
			sets = 2
		}
		l1s = append(l1s, l1At(sets, ways, cachesim.Policy(b>>6&1), b>>7 == 1))
	}
	if len(data) > 3*300 {
		data = data[:3*300] // a Bank replay costs O(ways) an access per point
	}
	for ; len(data) >= 3; data = data[3:] {
		r := procRun{proc: int(data[0]>>3) % procs, n: 1 + int64(data[2])%40, cut: -1}
		r.base = scatterID(int(data[0]&3)%3, int64(data[1])*(1+int64(data[0]>>6)))
		if data[0]&4 != 0 {
			r.cut = int64(data[1]) % (r.n + 1)
		}
		runs = append(runs, r)
	}
	return procs, l1s, runs
}

// FuzzDerivedMissStream runs checkDerivedMissStream on arbitrary (L1 grid,
// processor count, run stream, mark) cases. The seed corpus is
// testdata/fuzz/FuzzDerivedMissStream.
func FuzzDerivedMissStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		procs, l1s, runs := fuzzDerivedCase(data)
		checkDerivedMissStream(t, procs, l1s, runs)
	})
}
