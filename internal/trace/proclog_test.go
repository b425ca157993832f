package trace

import (
	"fmt"
	"math/rand"
	"slices"
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
		// Single-processor stretches of geometric length, so runs merge.
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
			pl.RecordRun(proc, blk, 1)
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
	}
}

func TestProcLogWindow(t *testing.T) {
	pl, err := NewProcLog(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pl.RecordRun(i%2, int64(i), 1)
	}
	pl.MarkWindow()
	for i := 10; i < 25; i++ {
		pl.RecordRun(i%2, int64(i), 1)
	}
	resets, counted := 0, int64(0)
	pl.ForEachRunWindowed(func() { resets++ }, func(proc int, base, n int64) {
		if resets == 1 {
			counted += n
		}
		if want := int(base) % 2; proc != want || n != 1 {
			t.Fatalf("run %d+%d tagged proc %d, want one block by %d", base, n, proc, want)
		}
	})
	if resets != 1 || counted != 15 {
		t.Fatalf("resets=%d counted=%d, want 1/15", resets, counted)
	}

	// A window mark at the end measures nothing but still resets once.
	pl.MarkWindow()
	resets = 0
	pl.ForEachRunWindowed(func() { resets++ }, func(int, int64, int64) {})
	if resets != 1 {
		t.Fatalf("end-mark resets=%d, want 1", resets)
	}
}

// TestProcLogRunsNeverMergeAcrossProcsOrMark: a run extends the last one
// only when the same processor continues it with no window mark between;
// the replay hands the sinks exactly those runs.
func TestProcLogRunsNeverMergeAcrossProcsOrMark(t *testing.T) {
	pl, err := NewProcLog(2)
	if err != nil {
		t.Fatal(err)
	}
	pl.RecordRun(0, 10, 2)
	pl.RecordRun(1, 12, 2) // continues the blocks on another processor
	pl.RecordRun(1, 14, 1) // merges
	pl.MarkWindow()
	pl.RecordRun(1, 15, 1) // continues, across the mark
	pl.RecordRun(0, 16, 1)
	var got []string
	pl.ForEachRunWindowed(func() { got = append(got, "reset") },
		func(proc int, base, n int64) { got = append(got, fmt.Sprintf("%d:%d+%d", proc, base, n)) })
	if want := []string{"0:10+2", "1:12+3", "reset", "1:15+1", "0:16+1"}; !slices.Equal(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	if pl.log.EncodedBytes() != 4*runBytes {
		t.Fatalf("%d bytes; want 4 runs", pl.log.EncodedBytes())
	}
}

func TestProcLogRunLength(t *testing.T) {
	pl, err := NewProcLog(2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		pl.RecordRun(0, int64(i), 1)
	}
	for i := 0; i < 100; i++ {
		pl.RecordRun(1, int64(i), 1)
	}
	for i := 0; i < 100; i++ {
		pl.RecordRun(0, int64(i), 1)
	}
	if len(pl.log.runs) != 3 {
		t.Fatalf("%d runs, want 3 (a processor's continuing run not merging)", len(pl.log.runs))
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
	pl.RecordRun(2, 0, 1)
}
