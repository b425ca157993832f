package trace

import (
	"unsafe"

	"streamsched/internal/obs"
)

// Log is an in-memory trace of block accesses, stored as the runs the
// recorder was handed: each run is n accesses to the blocks base, base+1,
// …, base+n-1, in that order — the contiguous block ranges a firing
// touches, which is what the execution machine emits. RecordRun extends
// the last run when the new one continues it, so the stored runs are the
// access sequence's maximal ascending runs whether it was fed a block or a
// range at a time, split only at the window mark.
//
// A Log records a single logical run. MarkWindow splits it into a warmup
// prefix and a measured window, mirroring schedule.Measure's
// warm-then-reset-stats protocol: a replay feeds the whole trace (the
// warmup populates the consumer's caches or stacks) and calls reset where
// the window begins, so only window accesses are counted.
//
// The production profiling paths do not record one: their profilers are
// the execution's recorder. A Log is the trace for callers that need a
// second pass over one execution — the pointwise oracles, the experiments
// and the benchmark probe.
//
// The zero value is ready to use. Log is not safe for concurrent use.
type Log struct {
	runs      []run
	n         int64 // total recorded accesses
	window    int64 // index of the first measured access (0: whole trace)
	windowRun int   // index of the run the window opens with
	replays   int64 // completed end-to-end replays
	met       *logMetrics
}

// run is one stored run: n >= 1 accesses by processor proc (always 0 in a
// plain Log) to the blocks base, base+1, …, base+n-1.
type run struct {
	base, n int64
	proc    int
}

// runBytes is what one stored run costs.
const runBytes = int64(unsafe.Sizeof(run{}))

// logMetrics caches the log's registry handles. A shared zero-value
// instance is the disabled path: its nil metrics discard everything.
type logMetrics struct {
	reg     *obs.Registry
	replays *obs.Counter
	replay  *obs.Histogram
}

var nopLogMetrics logMetrics

func newLogMetrics(reg *obs.Registry) *logMetrics {
	if reg == nil {
		return &nopLogMetrics
	}
	return &logMetrics{reg: reg, replays: reg.Counter("trace.replays"), replay: reg.Histogram("trace.replay")}
}

// metrics resolves the log's registry handles, capturing the process
// default lazily on first use when SetMetrics was never called.
func (l *Log) metrics() *logMetrics {
	if l.met == nil {
		l.met = newLogMetrics(obs.Default())
	}
	return l.met
}

// SetMetrics routes the log's instrumentation (trace.replays, and the
// trace.replay histogram — full replay wall-clock, consumer callbacks
// included) into reg instead of the process default; nil disables it.
// Access counts are the recording window's to publish (trace.accesses),
// not the log's. Without it the default registry is captured at the first
// replay.
func (l *Log) SetMetrics(reg *obs.Registry) { l.met = newLogMetrics(reg) }

// Metrics returns the registry the log publishes to, nil when disabled.
// Profiling passes that only receive the log (ProfileOrgs, ProfileHier)
// publish their own metrics here so one run's counters land in one place.
func (l *Log) Metrics() *obs.Registry { return l.metrics().reg }

// NewLog returns an empty in-memory trace log.
func NewLog() *Log { return &Log{} }

// RecordRun implements Recorder: it appends accesses to the n blocks
// base, base+1, …, in that order.
func (l *Log) RecordRun(base, n int64) { l.record(0, base, n) }

// record appends processor proc's accesses to the n blocks base, base+1,
// …, extending the last run when this one continues it on the same
// processor and no window mark lies between them.
func (l *Log) record(proc int, base, n int64) {
	if n <= 0 {
		return
	}
	l.n += n
	if last := len(l.runs) - 1; last >= l.windowRun {
		if r := &l.runs[last]; r.proc == proc && r.base+r.n == base {
			r.n += n
			return
		}
	}
	l.runs = append(l.runs, run{base: base, n: n, proc: proc})
}

// MarkWindow marks the current position as the start of the measured
// window and closes the current run: accesses recorded before this call
// warm the consumer but are not counted.
func (l *Log) MarkWindow() { l.window, l.windowRun = l.n, len(l.runs) }

// Len returns the number of recorded accesses.
func (l *Log) Len() int64 { return l.n }

// WindowStart returns the index of the first measured access.
func (l *Log) WindowStart() int64 { return l.window }

// EncodedBytes returns the bytes the stored runs hold.
func (l *Log) EncodedBytes() int64 { return int64(len(l.runs)) * runBytes }

// Replays returns how many times the trace has been replayed end to end.
// It is the single-pass oracle: TestProfileHierSinglePass and
// TestProfileOrgsJobsMatchesSequential require one replay per profile.
func (l *Log) Replays() int64 { return l.replays }

// walk is the one replay loop behind every replay form: it hands fn the
// stored runs in order and calls reset exactly when the measured window
// begins — just before the window's first run, or once at the end when
// the window is empty.
func (l *Log) walk(reset func(), fn func(proc int, base, n int64)) {
	met := l.metrics()
	stop := met.replay.Start()
	for i, r := range l.runs {
		if i == l.windowRun {
			reset()
		}
		fn(r.proc, r.base, r.n)
	}
	if l.windowRun == len(l.runs) {
		reset()
	}
	l.replays++
	met.replays.Add(1)
	stop()
}

// ForEachRunWindowed replays every recorded access in order as the stored
// runs — fn(base, n) stands for accesses to base, base+1, …, base+n-1 —
// invoking reset exactly when the measured window begins, or once at the
// end when the window is empty. Every windowed consumer (the profilers,
// the hierarchy simulator) feeds its live RecordRun through it, so the
// warm-then-reset-counts protocol lives in one place. It may be called
// repeatedly; the log remains appendable afterwards.
func (l *Log) ForEachRunWindowed(reset func(), fn func(base, n int64)) {
	l.walk(reset, func(_ int, base, n int64) { fn(base, n) })
}

// ForEach replays every recorded access in order, one block at a time. A
// replay cannot fail: the error is always nil, and stays in the signature
// because the bench/ module's probe checks it.
func (l *Log) ForEach(fn func(blk int64)) error {
	l.walk(func() {}, func(_ int, base, n int64) {
		for end := base + n; base != end; base++ {
			fn(base)
		}
	})
	return nil
}

// Close releases nothing: the trace lives in memory and stays readable.
// It lets a caller treat a recorded log like any closable resource.
func (l *Log) Close() error { return nil }
