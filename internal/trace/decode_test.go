package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// randomShardLog builds a trace with a mix of strided, looping, and random
// accesses (including negative block ids, which the set routing must
// floor-fix), windowed at a random position. A long log seals several
// chunks; a short one is all open tail.
func randomShardLog(t *testing.T, rng *rand.Rand, n int, long bool) *Log {
	t.Helper()
	l := NewLog()
	if long {
		n *= 30 // enough encoded bytes to seal chunks
	}
	blocks := int64(rng.Intn(600) + 8)
	warm := rng.Intn(n + 1)
	for i := 0; i < n; i++ {
		if i == warm {
			l.MarkWindow()
		}
		var blk int64
		switch rng.Intn(4) {
		case 0:
			blk = int64(i) % blocks // streaming stride
		case 1:
			blk = int64(rng.Intn(int(blocks))) // uniform reuse
		case 2:
			blk = int64(rng.Intn(32)) // hot set
		default:
			blk = -int64(rng.Intn(64)) - 1 // negative ids
		}
		l.RecordBlock(blk)
	}
	if warm >= n {
		l.MarkWindow() // empty window: reset fires at end
	}
	if long && l.numChunks() < 2 {
		t.Fatal("long variant sealed no chunk; grow the trace")
	}
	return l
}

// TestChunkStandaloneRoundTrip is the delta-reset invariant the chunk
// metadata promises: every sealed chunk (and the open tail) must decode
// standalone from its recorded base and global start index to exactly the
// slice of the full stream it covers — randomised logs, short and
// multi-chunk.
func TestChunkStandaloneRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 8; trial++ {
		l := randomShardLog(t, rng, 2000+rng.Intn(4000), trial%2 == 1)

		var full []int64
		if err := l.ForEach(func(blk int64) { full = append(full, blk) }); err != nil {
			t.Fatal(err)
		}
		if int64(len(full)) != l.Len() {
			t.Fatalf("full decode yielded %d accesses, recorded %d", len(full), l.Len())
		}

		nc := l.numChunks()
		var covered int64
		// Walk the chunks in a scrambled order: standalone means no chunk
		// may depend on a predecessor having been decoded first.
		for _, i := range rng.Perm(nc) {
			meta, buf := l.chunkAt(i)
			var blks []int64
			err := decodeChunk(buf, meta, i, func(base, n int64) {
				for end := base + n; base != end; base++ {
					blks = append(blks, base)
				}
			})
			if err != nil {
				t.Fatalf("chunk %d standalone decode: %v", i, err)
			}
			want := full[meta.start : meta.start+meta.n]
			if !reflect.DeepEqual(blks, want) {
				t.Fatalf("trial %d chunk %d (start %d, n %d): standalone decode differs from full replay", trial, i, meta.start, meta.n)
			}
			covered += meta.n
		}
		if covered != l.Len() {
			t.Fatalf("chunks cover %d accesses, recorded %d", covered, l.Len())
		}
	}
}

// corruptibleLog records large-delta accesses until at least chunks
// chunks are sealed and the open tail is non-empty.
func corruptibleLog(chunks int) *Log {
	rng := rand.New(rand.NewSource(37))
	l := NewLog()
	for len(l.metas) < chunks || len(l.cur) == 0 {
		l.RecordBlock(rng.Int63() - rng.Int63()) // huge deltas: ~10 bytes each
	}
	return l
}

// TestCorruptChunkInMemory corrupts a sealed in-memory chunk and asserts
// the decode error names the chunk index and byte offset — the old
// decoder's anonymous "corrupt varint in chunk" left both out — and that
// a failed replay counts as no replay.
func TestCorruptChunkInMemory(t *testing.T) {
	l := corruptibleLog(2)
	if len(l.chunks) < 2 {
		t.Fatalf("want >= 2 sealed chunks, have %d", len(l.chunks))
	}
	// A run of continuation bytes longer than any valid varint: the
	// decoder must flag the run's first byte.
	const at = 100
	copy(l.chunks[1][at:], bytes.Repeat([]byte{0xff}, 16))

	err := l.ForEach(func(int64) {})
	if err == nil {
		t.Fatal("corrupt chunk decoded without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "chunk 1") {
		t.Errorf("error %q does not name chunk 1", msg)
	}
	if !strings.Contains(msg, "byte offset") {
		t.Errorf("error %q does not name the byte offset", msg)
	}
	var ce *chunkError
	if !errors.As(err, &ce) {
		t.Fatalf("error %T is not a chunkError", err)
	}
	if ce.chunk != 1 || ce.off < at-10 || ce.off > at {
		t.Errorf("chunkError = chunk %d offset %d, want chunk 1 near offset %d", ce.chunk, ce.off, at)
	}
	if l.Replays() != 0 {
		t.Errorf("a failed replay was counted: Replays() = %d", l.Replays())
	}
}
