package trace

import (
	"encoding/binary"
	"fmt"
	"time"

	"streamsched/internal/obs"
)

// logChunkSize is the target size of one encoded chunk. Chunks are sealed
// when they reach this size.
const logChunkSize = 64 << 10

// Log is a compact append-only trace of block accesses. Successive block
// ids are zigzag-delta encoded as varints (streaming access patterns are
// dominated by small strides, so most accesses cost one or two bytes) and
// accumulated in fixed-size chunks, all in memory.
//
// Every sealed chunk carries a small chunkMeta recording its delta base
// (the block id preceding the chunk's first access), its global access
// index and its access count, so a chunk decodes standalone and its
// decoded length is checked against what was sealed.
//
// A Log records a single logical run. MarkWindow splits it into a warmup
// prefix and a measured window, mirroring schedule.Measure's
// warm-then-reset-stats protocol: profiling replays the whole trace (the
// warmup populates the LRU stack) but only window accesses are counted.
//
// The production profiling paths do not record one: their profilers are
// the execution's recorder. A Log is the in-memory trace for callers that
// need a second pass over one execution — the pointwise oracles, the
// experiments and the benchmark probe.
//
// The zero value is ready to use. Log is not safe for concurrent use.
type Log struct {
	chunks   [][]byte    // sealed chunks, in order
	metas    []chunkMeta // one per sealed chunk
	cur      []byte      // open chunk being appended to
	curBase  int64       // delta base of cur's first access
	curStart int64       // global access index of cur's first access
	prev     int64       // previous block id (delta base)
	n        int64       // total recorded accesses
	window   int64       // index of the first measured access (0: whole trace)
	memBytes int64       // bytes held in sealed chunks
	replays  int64       // completed end-to-end decodes (ForEach calls)

	met     *logMetrics
	scratch [binary.MaxVarintLen64]byte
}

// logMetrics caches the log's registry handles so the record path touches
// the registry maps once, not per access. A shared zero-value instance is
// the disabled path: its nil counters discard everything.
type logMetrics struct {
	reg     *obs.Registry
	sealedC *obs.Counter
	replays *obs.Counter
	decode  *obs.Timer
}

// chunkMeta makes one sealed chunk standalone-decodable: the chunk's
// varint deltas accumulate onto base, its first access sits at global
// index start, and it decodes to exactly n accesses. Metas are tiny (one
// per 64KB of encoded trace).
type chunkMeta struct {
	base  int64
	start int64
	n     int64
	bytes int64
}

var nopLogMetrics logMetrics

func newLogMetrics(reg *obs.Registry) *logMetrics {
	if reg == nil {
		return &nopLogMetrics
	}
	return &logMetrics{
		reg:     reg,
		sealedC: reg.Counter("trace.chunks.sealed"),
		replays: reg.Counter("trace.replays"),
		decode:  reg.Timer("trace.replay"),
	}
}

// metrics resolves the log's registry handles, capturing the process
// default lazily on first use when SetMetrics was never called.
func (l *Log) metrics() *logMetrics {
	if l.met == nil {
		l.met = newLogMetrics(obs.Default())
	}
	return l.met
}

// SetMetrics routes the log's instrumentation (trace.chunks.sealed,
// trace.replays, and the trace.replay timer — full replay wall-clock,
// consumer callbacks included) into reg instead of the process default;
// nil disables it. Access counts are the recording window's to publish
// (trace.accesses), not the log's.
// Call before recording starts — without it the default registry is
// captured at the first recorded access.
func (l *Log) SetMetrics(reg *obs.Registry) { l.met = newLogMetrics(reg) }

// Metrics returns the registry the log publishes to, nil when disabled.
// Profiling passes that only receive the log (ProfileOrgs, ProfileHier)
// publish their own metrics here so one run's counters land in one place.
func (l *Log) Metrics() *obs.Registry { return l.metrics().reg }

// LogStats is a recording's accounting summary.
type LogStats struct {
	Accesses int64 // block accesses recorded
	Chunks   int64 // chunks sealed
	Replays  int64 // completed end-to-end decodes
}

// Stats returns the log's accounting summary.
func (l *Log) Stats() LogStats {
	return LogStats{Accesses: l.n, Chunks: int64(len(l.metas)), Replays: l.replays}
}

// NewLog returns an empty in-memory trace log.
func NewLog() *Log { return &Log{} }

// RecordBlock appends one block access: RecordRun(blk, 1).
func (l *Log) RecordBlock(blk int64) { l.RecordRun(blk, 1) }

// RecordRun implements Recorder: it appends accesses to the n blocks
// base, base+1, …, in that order, in the per-access encoding — the first
// block's delta as a varint, then one byte (delta +1) per further block,
// written in a tight loop. A chunk that fills mid-run seals there and the
// rest of the run opens the next, so chunks stay standalone-decodable.
func (l *Log) RecordRun(base, n int64) {
	if n <= 0 {
		return
	}
	l.openChunk()
	m := binary.PutVarint(l.scratch[:], base-l.prev)
	l.cur = append(l.cur, l.scratch[:m]...)
	l.prev = base
	l.n++
	n--
	for {
		if len(l.cur) >= logChunkSize {
			l.seal()
		}
		if n == 0 {
			return
		}
		l.openChunk()
		k := int64(logChunkSize - len(l.cur))
		if k > n {
			k = n
		}
		tail := l.cur[len(l.cur) : len(l.cur)+int(k)]
		for i := range tail {
			tail[i] = 2 // zigzag(+1)
		}
		l.cur = l.cur[:len(l.cur)+int(k)]
		l.prev += k
		l.n += k
		n -= k
	}
}

// openChunk starts a chunk at the current position if none is open.
func (l *Log) openChunk() {
	if l.cur == nil {
		l.cur = make([]byte, 0, logChunkSize)
		l.curBase = l.prev
		l.curStart = l.n
	}
}

// seal closes the open chunk, recording its standalone-decode metadata.
func (l *Log) seal() {
	if len(l.cur) == 0 {
		return
	}
	l.chunks = append(l.chunks, l.cur)
	l.metas = append(l.metas, l.openMeta())
	l.memBytes += int64(len(l.cur))
	l.cur = nil
	l.metrics().sealedC.Add(1)
}

// openMeta is the standalone-decode metadata of the open chunk.
func (l *Log) openMeta() chunkMeta {
	return chunkMeta{base: l.curBase, start: l.curStart, n: l.n - l.curStart, bytes: int64(len(l.cur))}
}

// MarkWindow marks the current position as the start of the measured
// window: accesses recorded before this call warm the stack but are not
// counted by Profile.
func (l *Log) MarkWindow() { l.window = l.n }

// Len returns the number of recorded accesses.
func (l *Log) Len() int64 { return l.n }

// WindowStart returns the index of the first measured access.
func (l *Log) WindowStart() int64 { return l.window }

// EncodedBytes returns the total encoded size of the trace so far.
func (l *Log) EncodedBytes() int64 { return l.memBytes + int64(len(l.cur)) }

// Replays returns how many times the trace has been decoded end to end.
// Single-pass regression tests assert on it.
func (l *Log) Replays() int64 { return l.replays }

// ForEachRun is the replay primitive: it replays every recorded access in
// order as ascending runs — fn(base, n) stands for accesses to base,
// base+1, …, base+n-1 — maximal but for cuts where a chunk ends and at the
// window mark, so a windowed consumer never has to split one. It may be
// called repeatedly; the log remains appendable afterwards. Decoding is
// chunk-at-a-time; a chunk that fails to decode is reported by index and
// byte offset.
func (l *Log) ForEachRun(fn func(base, n int64)) error {
	met := l.metrics()
	var began time.Time
	if met.reg != nil {
		began = time.Now()
	}
	for i, nc := 0, l.numChunks(); i < nc; i++ {
		meta, buf := l.chunkAt(i)
		emit := fn
		if at := meta.start; at < l.window && l.window < at+meta.n {
			// The window opens inside this chunk: cut the run it falls in.
			emit = func(base, n int64) {
				if cut := l.window - at; cut > 0 && cut < n {
					fn(base, cut)
					base, n, at = base+cut, n-cut, at+cut
				}
				at += n
				fn(base, n)
			}
		}
		if err := decodeChunk(buf, meta, i, emit); err != nil {
			return err
		}
	}
	l.replays++
	met.replays.Add(1)
	if met.reg != nil {
		met.decode.Observe(time.Since(began))
	}
	return nil
}

// ForEach replays every recorded access in order, one block at a time.
func (l *Log) ForEach(fn func(blk int64)) error { return l.ForEachRun(eachBlock(fn)) }

// eachBlock adapts a per-block callback to the run form.
func eachBlock(fn func(blk int64)) func(base, n int64) {
	return func(base, n int64) {
		for end := base + n; base != end; base++ {
			fn(base)
		}
	}
}

// numChunks returns how many standalone-decodable chunks the log holds:
// every sealed chunk plus the open tail when non-empty.
func (l *Log) numChunks() int {
	if len(l.cur) > 0 {
		return len(l.metas) + 1
	}
	return len(l.metas)
}

// chunkAt returns chunk i's standalone-decode metadata and bytes; i ==
// len(l.metas) addresses the open tail chunk.
func (l *Log) chunkAt(i int) (chunkMeta, []byte) {
	if i < len(l.metas) {
		return l.metas[i], l.chunks[i]
	}
	return l.openMeta(), l.cur
}

// ForEachRunWindowed replays every recorded access in order like
// ForEachRun, additionally invoking reset exactly when the measured window
// begins — after the warmup prefix has been replayed, or once at the end
// when the window mark sits at or past the last access (an empty window
// measures nothing). Every windowed consumer (the profilers, the
// hierarchy simulator) shares this so the warm-then-reset-counts protocol
// lives in one place.
func (l *Log) ForEachRunWindowed(reset func(), touchRun func(base, n int64)) error {
	start := l.window
	var i int64
	err := l.ForEachRun(func(base, n int64) {
		if i == start {
			reset()
		}
		i += n
		touchRun(base, n)
	})
	if err != nil {
		return err
	}
	if start >= i {
		reset()
	}
	return nil
}

// ForEachWindowed is ForEachRunWindowed one block at a time.
func (l *Log) ForEachWindowed(reset func(), touch func(blk int64)) error {
	return l.ForEachRunWindowed(reset, eachBlock(touch))
}

// Close releases nothing: the trace lives in memory and stays readable.
// It lets a caller treat a recorded log like any closable resource.
func (l *Log) Close() error { return nil }

// chunkError is a chunk-granular decode failure. It names the chunk index
// and the byte offset within the chunk, so a corruption report pinpoints
// the damage.
type chunkError struct {
	chunk int
	off   int64
	msg   string
}

func (e *chunkError) Error() string {
	return fmt.Sprintf("trace: %s in chunk %d at byte offset %d", e.msg, e.chunk, e.off)
}

// decodeChunk is the one chunk decoder: it walks buf's zigzag-varint
// deltas from the chunk's sealed base and yields the accesses as maximal
// ascending runs — a delta, then however many single-byte +1 deltas
// follow it — with no per-access call. A corrupt varint is reported at
// its first byte's offset, and the decoded access count is cross-checked
// against the sealed metadata, so truncated or padded chunks surface as
// corruption instead of skewing every consumer's global indices. Runs
// before the fault have been delivered; callers discard them on error.
func decodeChunk(buf []byte, meta chunkMeta, idx int, fn func(base, n int64)) error {
	prev, total := meta.base, int64(0)
	for i := 0; i < len(buf); {
		start := i
		ux := uint64(buf[i])
		i++
		if ux >= 0x80 {
			ux &= 0x7f
			for s := uint(7); ; s += 7 {
				if i >= len(buf) || s > 63 {
					return &chunkError{chunk: idx, off: int64(start), msg: "corrupt varint"}
				}
				b := buf[i]
				i++
				ux |= uint64(b&0x7f) << s
				if b < 0x80 {
					break
				}
			}
		}
		delta := int64(ux >> 1)
		if ux&1 != 0 {
			delta = ^delta
		}
		first := i
		for i < len(buf) && buf[i] == 2 {
			i++
		}
		n := int64(i-first) + 1
		fn(prev+delta, n)
		prev += delta + n - 1
		total += n
	}
	if total != meta.n {
		return &chunkError{chunk: idx, off: meta.bytes, msg: fmt.Sprintf("access count mismatch (decoded %d of sealed %d)", total, meta.n)}
	}
	return nil
}
