package trace

import (
	"fmt"

	"streamsched/internal/obs"
)

// ProcLog is a multi-processor trace: P per-processor block-access streams
// together with the global order in which the parallel executor interleaved
// them. It is what internal/hierarchy.ProfileShared and SimulateSharedLog
// replay: private-L1 behaviour depends only on each processor's own
// stream, but a shared L2's contents depend on how the processors' miss
// streams interleave, so the global order is part of the trace, not an
// artifact of it.
//
// Representation: the interleaved stream is stored in one Log (so the
// delta-varint encoding is inherited wholesale), plus a run-length list of
// (processor, count) runs. Parallel execution is atomic
// per component execution, so the interleaving is long single-processor
// runs and the run list stays tiny — one entry per processor switch, not
// per access.
//
// A ProcLog records a single logical run. MarkWindow splits it into a
// warmup prefix and a measured window at a global position, mirroring
// Log.MarkWindow. The zero value is not usable; construct with NewProcLog.
// ProcLog is not safe for concurrent use — the parallel executor is a
// deterministic single-threaded simulation, which is also what makes the
// recorded interleaving reproducible.
type ProcLog struct {
	procs int
	log   *Log
	runs  []procRun
	perN  []int64 // accesses recorded per processor
}

// procRun is one maximal single-processor stretch of the global order.
type procRun struct {
	proc int
	n    int64
}

// NewProcLog returns an empty trace for procs processors.
func NewProcLog(procs int) (*ProcLog, error) {
	if procs < 1 {
		return nil, fmt.Errorf("trace: ProcLog needs >= 1 processor, got %d", procs)
	}
	return &ProcLog{procs: procs, log: NewLog(), perN: make([]int64, procs)}, nil
}

// Record appends one access by processor proc to the global order.
func (pl *ProcLog) Record(proc int, blk int64) { pl.RecordRun(proc, blk, 1) }

// RecordRun appends processor proc's accesses to the n blocks base,
// base+1, … to the global order — the shape a per-processor cache's
// observer tap delivers.
func (pl *ProcLog) RecordRun(proc int, base, n int64) {
	if proc < 0 || proc >= pl.procs {
		panic(fmt.Sprintf("trace: ProcLog.RecordRun processor %d out of [0,%d)", proc, pl.procs))
	}
	if n <= 0 {
		return
	}
	if last := len(pl.runs) - 1; last >= 0 && pl.runs[last].proc == proc {
		pl.runs[last].n += n
	} else {
		pl.runs = append(pl.runs, procRun{proc: proc, n: n})
	}
	pl.perN[proc] += n
	pl.log.RecordRun(base, n)
}

// Procs returns the processor count the trace was recorded with.
func (pl *ProcLog) Procs() int { return pl.procs }

// Len returns the total number of recorded accesses.
func (pl *ProcLog) Len() int64 { return pl.log.Len() }

// ProcLen returns the number of accesses processor proc recorded.
func (pl *ProcLog) ProcLen(proc int) int64 { return pl.perN[proc] }

// MarkWindow marks the current global position as the start of the
// measured window.
func (pl *ProcLog) MarkWindow() { pl.log.MarkWindow() }

// WindowStart returns the global index of the first measured access.
func (pl *ProcLog) WindowStart() int64 { return pl.log.WindowStart() }

// EncodedBytes returns the encoded size of the interleaved stream.
func (pl *ProcLog) EncodedBytes() int64 { return pl.log.EncodedBytes() }

// Replays returns how many times the trace has been decoded end to end.
func (pl *ProcLog) Replays() int64 { return pl.log.Replays() }

// Stats returns the underlying interleaved stream's accounting summary.
func (pl *ProcLog) Stats() LogStats { return pl.log.Stats() }

// SetMetrics forwards to the underlying Log: the interleaved stream's
// instrumentation publishes into reg. Call before recording starts.
func (pl *ProcLog) SetMetrics(reg *obs.Registry) { pl.log.SetMetrics(reg) }

// Metrics returns the registry the trace publishes to, nil when disabled.
func (pl *ProcLog) Metrics() *obs.Registry { return pl.log.Metrics() }

// Close releases nothing, like Log.Close.
func (pl *ProcLog) Close() error { return nil }

// procCursor walks the run-length-encoded interleaving, one access at a
// time, starting one before the first run (ri -1).
type procCursor struct {
	runs []procRun
	ri   int
	left int64
}

// next returns the recording processor of the access at the cursor and
// advances it.
func (c *procCursor) next() int {
	if c.left == 0 {
		c.ri++
		c.left = c.runs[c.ri].n
	}
	c.left--
	return c.runs[c.ri].proc
}

// ForEach replays every access in global order, tagged with the recording
// processor. It may be called repeatedly.
func (pl *ProcLog) ForEach(fn func(proc int, blk int64)) error {
	pc := procCursor{runs: pl.runs, ri: -1}
	return pl.log.ForEach(func(blk int64) { fn(pc.next(), blk) })
}

// ForEachWindowed replays like ForEach, invoking reset exactly when the
// measured window begins. The window semantics (mid-stream reset,
// reset-once at the end for an empty window) are Log.ForEachWindowed's —
// this only layers the processor tagging on top.
func (pl *ProcLog) ForEachWindowed(reset func(), touch func(proc int, blk int64)) error {
	pc := procCursor{runs: pl.runs, ri: -1}
	return pl.log.ForEachWindowed(reset, func(blk int64) { touch(pc.next(), blk) })
}
