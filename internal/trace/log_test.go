package trace

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func logRoundTrip(t *testing.T, l *Log, blocks []int64) {
	t.Helper()
	for _, b := range blocks {
		l.RecordRun(b, 1)
	}
	if l.Len() != int64(len(blocks)) {
		t.Fatalf("len = %d, want %d", l.Len(), len(blocks))
	}
	var got []int64
	if err := l.ForEach(func(b int64) { got = append(got, b) }); err != nil {
		t.Fatalf("ForEach: %v", err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("replayed %d accesses, want %d", len(got), len(blocks))
	}
	for i := range got {
		if got[i] != blocks[i] {
			t.Fatalf("access %d = %d, want %d", i, got[i], blocks[i])
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blocks := make([]int64, 50_000)
	for i := range blocks {
		switch rng.Intn(3) {
		case 0:
			blocks[i] = int64(i) // sequential: runs
		case 1:
			blocks[i] = rng.Int63n(1 << 40) // far jumps
		default:
			blocks[i] = int64(rng.Intn(64))
		}
	}
	l := NewLog()
	logRoundTrip(t, l, blocks)

	// Canonical form: the stored runs are the stream's maximal ascending
	// runs whether it was fed a block at a time or in arbitrary pieces of
	// those runs, and EncodedBytes is what they hold.
	var want []run
	byRun := NewLog()
	for i := 0; i < len(blocks); {
		j := i + 1
		for j < len(blocks) && blocks[j] == blocks[j-1]+1 {
			j++
		}
		want = append(want, run{base: blocks[i], n: int64(j - i)})
		for i < j {
			k := i + 1 + rng.Intn(j-i)
			byRun.RecordRun(blocks[i], int64(k-i))
			i = k
		}
	}
	if len(want) == len(blocks) {
		t.Fatal("the stream has no run longer than one block")
	}
	if !slices.Equal(l.runs, want) || !slices.Equal(byRun.runs, want) {
		t.Fatalf("block-fed log holds %d runs, run-fed %d; the stream has %d maximal runs", len(l.runs), len(byRun.runs), len(want))
	}
	if l.EncodedBytes() != int64(len(want))*runBytes || byRun.EncodedBytes() != l.EncodedBytes() {
		t.Fatalf("EncodedBytes %d (block-fed) and %d (run-fed) for %d runs of %d bytes",
			l.EncodedBytes(), byRun.EncodedBytes(), len(want), runBytes)
	}

	// The log must stay appendable and re-readable after a replay.
	more := []int64{7, 7, 99}
	for _, b := range more {
		l.RecordRun(b, 1)
	}
	var got []int64
	if err := l.ForEach(func(b int64) { got = append(got, b) }); err != nil {
		t.Fatalf("second ForEach: %v", err)
	}
	if want := append(blocks, more...); !slices.Equal(got, want) {
		t.Fatalf("second replay of %d accesses differs from the %d recorded", len(got), len(want))
	}
}

// replayTrace replays l through ForEachRunWindowed, naming each run
// "base+n" and each reset "reset", in order.
func replayTrace(l *Log) []string {
	var got []string
	l.ForEachRunWindowed(func() { got = append(got, "reset") },
		func(base, n int64) { got = append(got, fmt.Sprintf("%d+%d", base, n)) })
	return got
}

// TestLogRunsSplitOnlyAtMark: a run that continues the last one is merged
// into it, but never across the window mark; the replay resets exactly
// once — at the mark, or after every run when the window is empty.
func TestLogRunsSplitOnlyAtMark(t *testing.T) {
	l := NewLog()
	if got := replayTrace(l); !slices.Equal(got, []string{"reset"}) {
		t.Fatalf("empty log replays %v, want one reset", got)
	}
	l.RecordRun(10, 3)
	l.RecordRun(13, 1) // continues 10..12
	l.MarkWindow()
	l.MarkWindow()     // a second mark at the same position changes nothing
	l.RecordRun(14, 2) // would continue 10..13, but the mark lies between
	l.RecordRun(16, 1)
	l.RecordRun(16, 0) // empty: ignored
	if got, want := replayTrace(l), []string{"10+4", "reset", "14+3"}; !slices.Equal(got, want) {
		t.Fatalf("replay = %v, want %v", got, want)
	}
	if l.Len() != 7 || l.WindowStart() != 4 || l.Replays() != 2 {
		t.Fatalf("len %d, window %d, replays %d; want 7, 4, 2", l.Len(), l.WindowStart(), l.Replays())
	}
	l.MarkWindow() // an empty window
	if got, want := replayTrace(l), []string{"10+4", "14+3", "reset"}; !slices.Equal(got, want) {
		t.Fatalf("empty-window replay = %v, want %v", got, want)
	}
}

func TestLogWindowAndProfile(t *testing.T) {
	l := NewLog()
	warm := []int64{1, 2, 3}
	meas := []int64{1, 2, 3, 9}
	for _, b := range warm {
		l.RecordRun(b, 1)
	}
	l.MarkWindow()
	for _, b := range meas {
		l.RecordRun(b, 1)
	}
	if l.WindowStart() != 3 {
		t.Fatalf("window start = %d, want 3", l.WindowStart())
	}
	curve := Profile(l)
	if curve.Accesses != 4 {
		t.Fatalf("window accesses = %d, want 4", curve.Accesses)
	}
	if curve.Cold != 1 { // only block 9 is first-touched inside the window
		t.Fatalf("window cold = %d, want 1", curve.Cold)
	}
	// With >= 3 lines the warm stack holds 1,2,3: only 9 misses.
	if got := curve.Misses(3); got != 1 {
		t.Fatalf("misses at 3 lines = %d, want 1", got)
	}
	// With 1 line everything misses.
	if got := curve.Misses(1); got != 4 {
		t.Fatalf("misses at 1 line = %d, want 4", got)
	}
}

func TestProfileMatchesOnlineProfiler(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLog()
	p := NewProfiler()
	for i := 0; i < 20_000; i++ {
		b := rng.Int63n(500)
		l.RecordRun(b, 1)
		p.Touch(b)
	}
	fromLog := Profile(l)
	direct := p.Curve()
	for lines := int64(0); lines <= direct.SaturationLines()+1; lines++ {
		if fromLog.Misses(lines) != direct.Misses(lines) {
			t.Fatalf("lines=%d: log %d != direct %d", lines, fromLog.Misses(lines), direct.Misses(lines))
		}
	}
}

func TestProfileEmptyWindow(t *testing.T) {
	l := NewLog()
	for _, b := range []int64{1, 2, 1, 2} {
		l.RecordRun(b, 1)
	}
	l.MarkWindow() // nothing recorded after the mark
	curve := Profile(l)
	if curve.Accesses != 0 || curve.Cold != 0 {
		t.Fatalf("empty window counted accesses=%d cold=%d, want 0,0", curve.Accesses, curve.Cold)
	}
	if got := curve.Misses(1); got != 0 {
		t.Fatalf("empty window misses = %d, want 0", got)
	}
}
