package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"time"

	"streamsched/internal/obs"
)

// logChunkSize is the target size of one encoded chunk. Chunks are sealed
// when they reach this size; sealed chunks are what spilling moves to disk.
const logChunkSize = 64 << 10

// Log is a compact append-only trace of block accesses. Successive block
// ids are zigzag-delta encoded as varints (streaming access patterns are
// dominated by small strides, so most accesses cost one or two bytes) and
// accumulated in fixed-size chunks. When a spill threshold is set and the
// in-memory encoding exceeds it, sealed chunks are appended to an unlinked
// temporary file so arbitrarily long traces hold only O(1) memory.
//
// Every sealed chunk carries a small in-memory chunkMeta recording its
// delta base (the block id preceding the chunk's first access), its global
// access index, its access count, and — once spilled — its byte offset in
// the spill file. A chunk therefore decodes standalone, which is what lets
// ForEach read the spill file at chunk granularity via ReadAt instead of
// the seek-restore dance.
//
// A Log records a single logical run. MarkWindow splits it into a warmup
// prefix and a measured window, mirroring schedule.Measure's
// warm-then-reset-stats protocol: profiling replays the whole trace (the
// warmup populates the LRU stack) but only window accesses are counted.
//
// The zero value is ready to use and never spills. Log is not safe for
// concurrent use.
type Log struct {
	chunks   [][]byte    // sealed, still-in-memory chunks, in order
	metas    []chunkMeta // one per sealed chunk ever (spilled metas first)
	onDisk   int         // metas[:onDisk] have their bytes in the spill file
	cur      []byte      // open chunk being appended to
	curBase  int64       // delta base of cur's first access
	curStart int64       // global access index of cur's first access
	prev     int64       // previous block id (delta base)
	n        int64       // total recorded accesses
	window   int64       // index of the first measured access (0: whole trace)

	spillAt  int64 // seal-bytes threshold that triggers spilling; 0: never
	memBytes int64 // bytes held in sealed in-memory chunks
	spill    *os.File
	spillW   *bufio.Writer
	spilled  int64 // bytes currently in the spill file (reset by Close)
	dropped  bool  // Close released spilled data; the log is unreadable
	err      error // first spill I/O error, reported by ForEach/Close
	replays  int64 // completed end-to-end decodes (ForEach calls)

	sealed    int64 // chunks ever sealed
	everSpill int64 // bytes ever written to the spill file (survives Close)
	met       *logMetrics
	scratch   [binary.MaxVarintLen64]byte
}

// logMetrics caches the log's registry handles so the record path touches
// the registry maps once, not per access. A shared zero-value instance is
// the disabled path: its nil counters discard everything.
type logMetrics struct {
	reg      *obs.Registry
	accesses *obs.Counter
	sealedC  *obs.Counter
	spillB   *obs.Counter
	replays  *obs.Counter
	decode   *obs.Timer
}

// chunkMeta makes one sealed chunk standalone-decodable: the chunk's
// varint deltas accumulate onto base, its first access sits at global
// index start, and it decodes to exactly n accesses. off is the chunk's
// byte offset in the spill file, -1 while its bytes are still in memory.
// Metas are tiny (one per 64KB of encoded trace) and never spill.
type chunkMeta struct {
	base  int64
	start int64
	n     int64
	bytes int64
	off   int64
}

var nopLogMetrics logMetrics

func newLogMetrics(reg *obs.Registry) *logMetrics {
	if reg == nil {
		return &nopLogMetrics
	}
	return &logMetrics{
		reg:      reg,
		accesses: reg.Counter("trace.accesses"),
		sealedC:  reg.Counter("trace.chunks.sealed"),
		spillB:   reg.Counter("trace.spill.bytes"),
		replays:  reg.Counter("trace.replays"),
		decode:   reg.Timer("trace.replay"),
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

// SetMetrics routes the log's instrumentation (trace.accesses,
// trace.chunks.sealed, trace.spill.bytes, trace.replays, and the
// trace.replay timer — full replay wall-clock, consumer callbacks
// included) into reg instead of the process default; nil disables it.
// Call before recording starts — without it the default registry is
// captured at the first recorded access.
func (l *Log) SetMetrics(reg *obs.Registry) { l.met = newLogMetrics(reg) }

// Metrics returns the registry the log publishes to, nil when disabled.
// Profiling passes that only receive the log (ProfileOrgs, ProfileHier)
// publish their own metrics here so one run's counters land in one place.
func (l *Log) Metrics() *obs.Registry { return l.metrics().reg }

// LogStats is a recording's accounting summary — what the spill
// regression tests assert on instead of poking individual getters.
type LogStats struct {
	Accesses     int64 // block accesses recorded
	Chunks       int64 // chunks sealed (in-memory or spilled)
	SpilledBytes int64 // bytes ever written to the spill file
	Replays      int64 // completed end-to-end decodes
}

// Stats returns the log's accounting summary. SpilledBytes is cumulative
// over the log's lifetime: it survives Close, unlike Spilled().
func (l *Log) Stats() LogStats {
	return LogStats{
		Accesses:     l.n,
		Chunks:       l.sealed,
		SpilledBytes: l.everSpill,
		Replays:      l.replays,
	}
}

// NewLog returns an empty in-memory trace log.
func NewLog() *Log { return &Log{} }

// SetSpillThreshold makes the log spill sealed chunks to a temporary file
// once more than limit bytes of encoded trace are held in memory. A limit
// of 0 disables spilling. Must be called before recording starts.
func (l *Log) SetSpillThreshold(limit int64) {
	l.spillAt = limit
}

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
	l.metrics().accesses.Add(n)
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

// seal closes the open chunk, recording its standalone-decode metadata,
// and spills if over the threshold.
func (l *Log) seal() {
	if len(l.cur) == 0 {
		return
	}
	if l.err != nil {
		// Spilling already failed: the trace is unusable (ForEach reports
		// the latched error), so drop data rather than grow without bound
		// for the remainder of a long recording.
		l.cur = l.cur[:0]
		return
	}
	l.chunks = append(l.chunks, l.cur)
	l.metas = append(l.metas, chunkMeta{
		base:  l.curBase,
		start: l.curStart,
		n:     l.n - l.curStart,
		bytes: int64(len(l.cur)),
		off:   -1,
	})
	l.memBytes += int64(len(l.cur))
	l.cur = nil
	l.sealed++
	l.metrics().sealedC.Add(1)
	if l.spillAt > 0 && l.memBytes > l.spillAt {
		l.spillChunks()
	}
}

// spillChunks appends every sealed in-memory chunk to the spill file.
func (l *Log) spillChunks() {
	if l.err != nil {
		return
	}
	if l.spill == nil {
		f, err := os.CreateTemp("", "streamsched-trace-*")
		if err != nil {
			l.err = fmt.Errorf("trace: create spill file: %w", err)
			return
		}
		// Unlink immediately; the file lives until Close drops the handle.
		os.Remove(f.Name())
		l.spill = f
		l.spillW = bufio.NewWriterSize(f, 1<<20)
	}
	moved := int64(0)
	for _, c := range l.chunks {
		if _, err := l.spillW.Write(c); err != nil {
			l.err = fmt.Errorf("trace: spill write: %w", err)
			return
		}
		l.metas[l.onDisk].off = l.spilled
		l.onDisk++
		l.spilled += int64(len(c))
		moved += int64(len(c))
	}
	l.everSpill += moved
	l.metrics().spillB.Add(moved)
	l.chunks = l.chunks[:0]
	l.memBytes = 0
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
func (l *Log) EncodedBytes() int64 {
	return l.spilled + l.memBytes + int64(len(l.cur))
}

// Spilled reports whether any part of the trace lives on disk.
func (l *Log) Spilled() bool { return l.spilled > 0 }

// Err returns the first spill I/O error, if any. Once an error is latched
// the log stops retaining new accesses and ForEach refuses to replay;
// long-running recorders can poll Err to abort early.
func (l *Log) Err() error { return l.err }

// Replays returns how many times the trace has been decoded end to end —
// the replay I/O a profiling path paid. Single-pass regression tests
// assert on it: on a spilled trace every replay is a full re-read of the
// spill file.
func (l *Log) Replays() int64 { return l.replays }

// ForEachRun is the replay primitive: it replays every recorded access in
// order as ascending runs — fn(base, n) stands for accesses to base,
// base+1, …, base+n-1 — maximal but for cuts where a chunk ends and at the
// window mark, so a windowed consumer never has to split one. It may be
// called repeatedly; the log remains appendable afterwards. Decoding is
// chunk-at-a-time with spilled chunks read back at chunk granularity via
// ReadAt (the spill writer's offset is never disturbed).
func (l *Log) ForEachRun(fn func(base, n int64)) error {
	if l.err != nil {
		return l.err
	}
	if l.dropped {
		return fmt.Errorf("trace: log closed after spilling; spilled data released")
	}
	met := l.metrics()
	var began time.Time
	if met.reg != nil {
		began = time.Now()
	}
	if err := l.flushSpill(); err != nil {
		return err
	}
	var readBuf []byte
	for i, nc := 0, l.numChunks(); i < nc; i++ {
		meta := l.chunkAt(i)
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
		buf, err := l.chunkBytes(i, &readBuf)
		if err == nil {
			err = decodeChunk(buf, meta, i, emit)
		}
		if err != nil {
			return l.latchChunk(err)
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

// flushSpill pushes buffered spill writes to the file so chunk reads see
// every sealed byte. A flush failure is latched: the spill file's
// contents can no longer be trusted.
func (l *Log) flushSpill() error {
	if l.spill == nil {
		return nil
	}
	if err := l.spillW.Flush(); err != nil {
		l.err = fmt.Errorf("trace: spill flush: %w", err)
		return l.err
	}
	return nil
}

// numChunks returns how many standalone-decodable chunks the log holds:
// every sealed chunk plus the open tail when non-empty.
func (l *Log) numChunks() int {
	if len(l.cur) > 0 {
		return len(l.metas) + 1
	}
	return len(l.metas)
}

// chunkAt returns chunk i's standalone-decode metadata; i == len(l.metas)
// addresses the open tail chunk.
func (l *Log) chunkAt(i int) chunkMeta {
	if i < len(l.metas) {
		return l.metas[i]
	}
	return chunkMeta{
		base:  l.curBase,
		start: l.curStart,
		n:     l.n - l.curStart,
		bytes: int64(len(l.cur)),
		off:   -1,
	}
}

// chunkBytes returns chunk i's encoded bytes. Spilled chunks are read
// into *readBuf (grown on demand, reused across calls) with ReadAt, which
// leaves the spill writer's offset alone. The caller must have flushed the
// spill writer first.
func (l *Log) chunkBytes(i int, readBuf *[]byte) ([]byte, error) {
	if i >= len(l.metas) {
		return l.cur, nil
	}
	m := l.metas[i]
	if m.off < 0 {
		return l.chunks[i-l.onDisk], nil
	}
	if int64(cap(*readBuf)) < m.bytes {
		*readBuf = make([]byte, m.bytes)
	}
	buf := (*readBuf)[:m.bytes]
	if _, err := l.spill.ReadAt(buf, m.off); err != nil {
		return nil, &chunkError{chunk: i, off: 0, spilled: true, msg: "spill read failed", cause: err}
	}
	return buf, nil
}

// latchChunk poisons the log when a chunk failure implicates the spill
// file (its contents can no longer be trusted, so later replays must
// refuse); corruption of a still-in-memory chunk leaves the log state
// alone.
func (l *Log) latchChunk(err error) error {
	var ce *chunkError
	if errors.As(err, &ce) && ce.spilled {
		l.err = err
	}
	return err
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

// Close releases the spill file, if any. A log that never spilled stays
// readable; one that did cannot be replayed afterwards (the in-memory tail
// is delta-encoded against the released prefix), so ForEach reports an
// error instead of returning wrong data.
func (l *Log) Close() error {
	if l.spill == nil {
		return l.err
	}
	err := l.spill.Close()
	l.spill, l.spillW = nil, nil
	if l.spilled > 0 {
		l.dropped = true
	}
	l.spilled = 0
	if l.err == nil && err != nil {
		l.err = err
	}
	return l.err
}

// chunkError is a chunk-granular read or decode failure. It names the
// chunk index and the byte offset within the chunk (0 for whole-chunk
// read failures), so a corruption report pinpoints the damage. spilled
// failures poison the log — see Log.latchChunk.
type chunkError struct {
	chunk   int
	off     int64
	spilled bool
	msg     string
	cause   error
}

func (e *chunkError) Error() string {
	if e.cause != nil {
		return fmt.Sprintf("trace: %s in chunk %d at byte offset %d: %v", e.msg, e.chunk, e.off, e.cause)
	}
	return fmt.Sprintf("trace: %s in chunk %d at byte offset %d", e.msg, e.chunk, e.off)
}

func (e *chunkError) Unwrap() error { return e.cause }

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
					return &chunkError{chunk: idx, off: int64(start), spilled: meta.off >= 0, msg: "corrupt varint"}
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
		return &chunkError{
			chunk: idx, off: meta.bytes, spilled: meta.off >= 0,
			msg: fmt.Sprintf("access count mismatch (decoded %d of sealed %d)", total, meta.n),
		}
	}
	return nil
}
