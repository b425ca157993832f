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
// Representation: a Log whose runs carry the recording processor. A run
// extends the last one only when the same processor continues it, so a
// processor switch always starts a new run. Parallel execution is atomic
// per component execution, so the interleaving is long single-processor
// stretches and switches split few runs.
//
// A ProcLog records a single logical run. MarkWindow splits it into a
// warmup prefix and a measured window at a global position, as
// Log.MarkWindow does. The zero value is not usable; construct with
// NewProcLog. ProcLog is not safe for concurrent use — the parallel
// executor is a deterministic single-threaded simulation, which is also
// what makes the recorded interleaving reproducible.
type ProcLog struct {
	log   Log
	procs int
	perN  []int64 // accesses recorded per processor
}

// NewProcLog returns an empty trace for procs processors.
func NewProcLog(procs int) (*ProcLog, error) {
	if procs < 1 {
		return nil, fmt.Errorf("trace: ProcLog needs >= 1 processor, got %d", procs)
	}
	return &ProcLog{procs: procs, perN: make([]int64, procs)}, nil
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
	if n > 0 {
		pl.perN[proc] += n
	}
	pl.log.record(proc, base, n)
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

// EncodedBytes returns the bytes the stored runs hold.
func (pl *ProcLog) EncodedBytes() int64 { return pl.log.EncodedBytes() }

// Replays returns how many times the trace has been replayed end to end.
func (pl *ProcLog) Replays() int64 { return pl.log.Replays() }

// SetMetrics routes the trace's instrumentation into reg, as
// Log.SetMetrics does.
func (pl *ProcLog) SetMetrics(reg *obs.Registry) { pl.log.SetMetrics(reg) }

// Metrics returns the registry the trace publishes to, nil when disabled.
func (pl *ProcLog) Metrics() *obs.Registry { return pl.log.Metrics() }

// Close releases nothing, like Log.Close.
func (pl *ProcLog) Close() error { return nil }

// ForEachRunWindowed replays every access in global order as the stored
// runs, each tagged with its recording processor, invoking reset exactly
// when the measured window begins — the window semantics are
// Log.ForEachRunWindowed's. fn has the shape of the per-processor sinks
// (hierarchy.SharedProfiler.RecordRun, hierarchy.SharedSim.RecordRun), so
// a replay feeds them exactly as a live parallel run does.
func (pl *ProcLog) ForEachRunWindowed(reset func(), fn func(proc int, base, n int64)) {
	pl.log.walk(reset, fn)
}

// ForEach replays every access in global order, one block at a time,
// tagged with the recording processor. It may be called repeatedly. Like
// Log.ForEach it cannot fail; the error is always nil.
func (pl *ProcLog) ForEach(fn func(proc int, blk int64)) error {
	pl.log.walk(func() {}, func(proc int, base, n int64) {
		for end := base + n; base != end; base++ {
			fn(proc, base)
		}
	})
	return nil
}
