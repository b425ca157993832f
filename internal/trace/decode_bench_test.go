package trace

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// benchChunk seals one full 64KB chunk and returns its bytes and metadata
// — the unit of work one decode worker claims. The stream has the shape
// the execution machine records: a firing re-reads its module's state as
// one ascending range, then touches a block or two of its channels'
// buffers. With scattered set, nothing is a run: block ids jump about, as
// no recording does — the decoder's worst case.
func benchChunk(b *testing.B, scattered bool) ([]byte, chunkMeta) {
	b.Helper()
	rng := rand.New(rand.NewSource(41))
	l := NewLog()
	for len(l.metas) == 0 {
		if scattered {
			l.RecordBlock(rng.Int63n(1200) - 64)
			continue
		}
		module := rng.Int63n(40)
		l.RecordRun(module*16, 2+module%13)
		l.RecordBlock(700 + module)
		if rng.Intn(2) == 0 {
			l.RecordBlock(701 + module)
		}
	}
	return l.chunks[0], l.metas[0]
}

// BenchmarkDecodeChunk measures the whole-chunk run decoder expanded to
// blocks (what ForEach runs) on a
// recording-shaped chunk, against a per-access binary.Varint loop over the
// same bytes, and on a chunk without a single run. A regression here
// slows every replay in the system.
func BenchmarkDecodeChunk(b *testing.B) {
	buf, meta := benchChunk(b, false)
	expand := func(b *testing.B, buf []byte, meta chunkMeta) {
		dst := make([]int64, 0, meta.n)
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			err := decodeChunk(buf, meta, 0, func(base, n int64) {
				for end := base + n; base != end; base++ {
					dst = append(dst, base)
				}
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(meta.n), "ns/access")
	}
	b.Run("runs", func(b *testing.B) { expand(b, buf, meta) })
	b.Run("scattered", func(b *testing.B) {
		buf, meta := benchChunk(b, true)
		expand(b, buf, meta)
	})

	b.Run("varint", func(b *testing.B) {
		// The reference: one binary.Varint call per access.
		dst := make([]int64, 0, meta.n)
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst = dst[:0]
			rest := buf
			prev := meta.base
			for len(rest) > 0 {
				delta, m := binary.Varint(rest)
				if m <= 0 {
					b.Fatal("corrupt varint")
				}
				rest = rest[m:]
				prev += delta
				dst = append(dst, prev)
			}
			if int64(len(dst)) != meta.n {
				b.Fatalf("decoded %d of %d", len(dst), meta.n)
			}
		}
	})
}
