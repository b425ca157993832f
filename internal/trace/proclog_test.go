package trace

import (
	"math/rand"
	"testing"
)

// randomProcTrace records a random interleaving of per-processor streams
// and returns the expected (proc, blk) sequence.
func randomProcTrace(t *testing.T, rng *rand.Rand, procs int, n int) (*ProcLog, []int, []int64) {
	t.Helper()
	pl, err := NewProcLog(procs)
	if err != nil {
		t.Fatalf("NewProcLog: %v", err)
	}
	var wantProc []int
	var wantBlk []int64
	proc := 0
	for len(wantBlk) < n {
		// Runs of geometric length so the run-length encoding is exercised.
		if rng.Intn(4) == 0 {
			proc = rng.Intn(procs)
		}
		blk := int64(rng.Intn(64)) - 8 // negative ids too
		k := 1
		if rng.Intn(3) == 0 { // a range touched as one run, as a cache's tap delivers it
			k = 1 + rng.Intn(12)
			if k > n-len(wantBlk) {
				k = n - len(wantBlk)
			}
			pl.RecordRun(proc, blk, int64(k))
		} else {
			pl.Record(proc, blk)
		}
		for i := 0; i < k; i++ {
			wantProc = append(wantProc, proc)
			wantBlk = append(wantBlk, blk+int64(i))
		}
	}
	return pl, wantProc, wantBlk
}

func TestProcLogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, procs := range []int{1, 2, 4} {
		pl, wantProc, wantBlk := randomProcTrace(t, rng, procs, 2000)
		var i int
		err := pl.ForEach(func(proc int, blk int64) {
			if proc != wantProc[i] || blk != wantBlk[i] {
				t.Fatalf("procs=%d access %d: got (%d,%d), want (%d,%d)",
					procs, i, proc, blk, wantProc[i], wantBlk[i])
			}
			i++
		})
		if err != nil {
			t.Fatalf("ForEach: %v", err)
		}
		if int64(i) != pl.Len() {
			t.Fatalf("replayed %d of %d accesses", i, pl.Len())
		}
		var perN int64
		for p := 0; p < procs; p++ {
			perN += pl.ProcLen(p)
		}
		if perN != pl.Len() {
			t.Fatalf("per-proc counts sum %d, total %d", perN, pl.Len())
		}
	}
}

func TestProcLogWindow(t *testing.T) {
	pl, err := NewProcLog(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pl.Record(i%2, int64(i))
	}
	pl.MarkWindow()
	for i := 10; i < 25; i++ {
		pl.Record(i%2, int64(i))
	}
	resets, counted := 0, 0
	err = pl.ForEachWindowed(func() { resets++ }, func(proc int, blk int64) {
		if resets == 1 {
			counted++
		}
		if want := int(blk) % 2; proc != want {
			t.Fatalf("block %d tagged proc %d, want %d", blk, proc, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if resets != 1 || counted != 15 {
		t.Fatalf("resets=%d counted=%d, want 1/15", resets, counted)
	}

	// A window mark at the end measures nothing but still resets once.
	pl.MarkWindow()
	resets = 0
	if err := pl.ForEachWindowed(func() { resets++ }, func(int, int64) {}); err != nil {
		t.Fatal(err)
	}
	if resets != 1 {
		t.Fatalf("end-mark resets=%d, want 1", resets)
	}
}

func TestProcLogRunLength(t *testing.T) {
	pl, err := NewProcLog(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		pl.Record(0, int64(i))
	}
	for i := 0; i < 100; i++ {
		pl.Record(1, int64(i))
	}
	for i := 0; i < 100; i++ {
		pl.Record(0, int64(i))
	}
	if len(pl.runs) != 3 {
		t.Fatalf("%d runs, want 3 (run-length encoding not merging)", len(pl.runs))
	}
}

func TestProcLogRejectsBadProcs(t *testing.T) {
	if _, err := NewProcLog(0); err == nil {
		t.Fatal("NewProcLog(0) succeeded")
	}
	pl, _ := NewProcLog(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Record with out-of-range proc did not panic")
		}
	}()
	pl.Record(2, 0)
}
