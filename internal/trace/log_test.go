package trace

import (
	"math/rand"
	"slices"
	"testing"
)

func logRoundTrip(t *testing.T, l *Log, blocks []int64) {
	t.Helper()
	for _, b := range blocks {
		l.RecordBlock(b)
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
			blocks[i] = int64(i) // sequential: tiny deltas
		case 1:
			blocks[i] = rng.Int63n(1 << 40) // far jumps
		default:
			blocks[i] = int64(rng.Intn(64))
		}
	}
	l := NewLog()
	logRoundTrip(t, l, blocks)
	if l.EncodedBytes() >= int64(8*len(blocks)) {
		t.Fatalf("encoding not compact: %d bytes for %d accesses", l.EncodedBytes(), len(blocks))
	}
	// The log must stay appendable and re-readable after a replay.
	more := []int64{7, 7, 99}
	for _, b := range more {
		l.RecordBlock(b)
	}
	var got []int64
	if err := l.ForEach(func(b int64) { got = append(got, b) }); err != nil {
		t.Fatalf("second ForEach: %v", err)
	}
	if want := append(blocks, more...); !slices.Equal(got, want) {
		t.Fatalf("second replay of %d accesses differs from the %d recorded", len(got), len(want))
	}
}

func TestLogWindowAndProfile(t *testing.T) {
	l := NewLog()
	warm := []int64{1, 2, 3}
	meas := []int64{1, 2, 3, 9}
	for _, b := range warm {
		l.RecordBlock(b)
	}
	l.MarkWindow()
	for _, b := range meas {
		l.RecordBlock(b)
	}
	if l.WindowStart() != 3 {
		t.Fatalf("window start = %d, want 3", l.WindowStart())
	}
	curve, err := Profile(l)
	if err != nil {
		t.Fatal(err)
	}
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
		l.RecordBlock(b)
		p.Touch(b)
	}
	fromLog, err := Profile(l)
	if err != nil {
		t.Fatal(err)
	}
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
		l.RecordBlock(b)
	}
	l.MarkWindow() // nothing recorded after the mark
	curve, err := Profile(l)
	if err != nil {
		t.Fatal(err)
	}
	if curve.Accesses != 0 || curve.Cold != 0 {
		t.Fatalf("empty window counted accesses=%d cold=%d, want 0,0", curve.Accesses, curve.Cold)
	}
	if got := curve.Misses(1); got != 0 {
		t.Fatalf("empty window misses = %d, want 0", got)
	}
}
