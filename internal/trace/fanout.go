package trace

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"streamsched/internal/obs"
)

// Parallel replay fan-out: one decode of the log feeds many consumers
// concurrently. Sealed chunks are standalone-decodable (each carries its
// delta base and global access index — see chunkMeta), so the decode
// stage itself scales: decodeJobs workers claim chunks from an ordered
// queue, decode each one into pooled fanBatches with the one chunk
// decoder (spilled chunks are read off disk at chunk granularity via
// ReadAt), and a reorder stage re-sequences the per-chunk batches before
// broadcasting, so every consumer still observes the exact global order —
// window resets included — and spilled traces are still read exactly
// once (Replays() counts one per pass). With decodeJobs=1 a single
// decoder goroutine streams the chunks in order through the same
// decoder, which is the byte-identical baseline the equivalence property
// tests pin the parallel path against.
//
// Resident memory stays flat regardless of trace length: the decode
// stage holds at most decodeJobs+2 chunks in flight (the ordered-slot
// queue is bounded), and downstream at most consumers*(fanQueueDepth+1)
// batches are buffered, all recycled through pools.
//
// Each consumer runs on its own goroutine and receives the complete
// stream in recorded order; parallelism comes from the decode workers
// plus consumers that each do their own share of the per-access work (the
// hierarchy profilers' unit workers). Window semantics are
// Log.ForEachWindowed's, replicated per consumer: ResetCounts fires
// exactly when the measured window begins, or once at the end when the
// window mark sits at or past the last access.

const (
	// fanBatchSize is the number of decoded accesses per broadcast batch:
	// large enough to amortise channel operations, small enough (32KB of
	// block ids) to stay cache-resident while a worker scans it.
	fanBatchSize = 4096
	// fanQueueDepth is the per-consumer channel buffer, in batches. It
	// bounds how far the decode stage may run ahead of the slowest
	// consumer.
	fanQueueDepth = 4
	// decodeReorderSlack is how many chunks beyond the worker count may be
	// in flight between the decode workers and the reorder stage; it
	// bounds the reorder buffer (a fast worker parks at most this far
	// ahead of the in-order chunk).
	decodeReorderSlack = 2
)

// ProfileWorkers resolves a jobs knob to a worker count: <= 0 means one
// worker per available CPU (GOMAXPROCS), larger values are taken as
// given. Shared by FanOut's decodeJobs and the hierarchy profilers' unit
// sharding.
func ProfileWorkers(jobs int) int {
	if jobs <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return jobs
}

// A WindowedConsumer consumes one windowed replay of a trace on a single
// goroutine: Touch receives every access in recorded order, and
// ResetCounts is invoked exactly once, when the measured window begins
// (warm-then-reset-counts, like Log.ForEachWindowed). OrgProfilers and
// the hierarchy profilers' unit workers implement it.
type WindowedConsumer interface {
	ResetCounts()
	Touch(blk int64)
}

// A ProcWindowedConsumer is the multiprocessor form: TouchProc receives
// every access in recorded global order, tagged with the recording
// processor.
type ProcWindowedConsumer interface {
	ResetCounts()
	TouchProc(proc int, blk int64)
}

// fanBatch is one broadcast unit: a run of consecutive decoded accesses
// starting at global index start, shared read-only by every consumer and
// recycled once the last one releases it.
type fanBatch struct {
	start int64
	blks  []int64
	procs []int32 // recording processor per access; empty for plain logs
	refs  atomic.Int32
}

var fanBatchPool = sync.Pool{New: func() any {
	return &fanBatch{blks: make([]int64, 0, fanBatchSize)}
}}

func getFanBatch() *fanBatch {
	b := fanBatchPool.Get().(*fanBatch)
	b.blks = b.blks[:0]
	b.procs = b.procs[:0]
	return b
}

// FanOut replays the log exactly once and streams every recorded access,
// in order, to each consumer concurrently (one goroutine per consumer),
// honouring the measured window per consumer. decodeJobs is the decode
// worker count with the usual convention — 0 uses one worker per CPU, 1
// forces the single-goroutine decoder — and is additionally capped at the
// chunk count, since chunks are the unit of decode parallelism. FanOut
// returns after every consumer has processed the full stream, so the
// caller may read consumer state without further synchronisation. An
// empty consumer list replays nothing and returns nil.
func (l *Log) FanOut(consumers []WindowedConsumer, decodeJobs int) error {
	if len(consumers) == 0 {
		return nil
	}
	return l.fanOut(nil, len(consumers), func(w int, b *fanBatch, window int64, resetDone *bool) {
		c := consumers[w]
		if !*resetDone && b.start+int64(len(b.blks)) > window {
			for k, blk := range b.blks {
				if !*resetDone && b.start+int64(k) >= window {
					c.ResetCounts()
					*resetDone = true
				}
				c.Touch(blk)
			}
			return
		}
		for _, blk := range b.blks {
			c.Touch(blk)
		}
	}, func(w int) { consumers[w].ResetCounts() }, decodeJobs)
}

// FanOut replays the multiprocessor trace exactly once and streams every
// access, tagged with its recording processor, to each consumer
// concurrently. Semantics are Log.FanOut's; the decode workers tag
// processors chunk-locally from the interleaving's run-length offsets.
func (pl *ProcLog) FanOut(consumers []ProcWindowedConsumer, decodeJobs int) error {
	if len(consumers) == 0 {
		return nil
	}
	return pl.log.fanOut(pl, len(consumers), func(w int, b *fanBatch, window int64, resetDone *bool) {
		c := consumers[w]
		if !*resetDone && b.start+int64(len(b.blks)) > window {
			for k, blk := range b.blks {
				if !*resetDone && b.start+int64(k) >= window {
					c.ResetCounts()
					*resetDone = true
				}
				c.TouchProc(int(b.procs[k]), blk)
			}
			return
		}
		for k, blk := range b.blks {
			c.TouchProc(int(b.procs[k]), blk)
		}
	}, func(w int) { consumers[w].ResetCounts() }, decodeJobs)
}

// fanMetrics is the pipeline's per-pass instrumentation bundle; zero
// value = disabled registry (nil handles discard everything).
type fanMetrics struct {
	batchesC *obs.Counter
	depthG   *obs.Gauge
	decodeH  *obs.Histogram // sequential decoder: per-batch fill latency
	routeH   *obs.Histogram // per-batch broadcast latency
	chunkH   *obs.Histogram // parallel decoder: per-chunk decode latency
}

// fanOut is the shared decode→reorder→broadcast engine behind Log.FanOut
// and ProcLog.FanOut. n worker goroutines drain their channels through
// consume, then finalReset handles the empty-window case. pl non-nil
// layers the run-length processor tags into the batches. decodeJobs
// picks the front end: 1 runs the single-goroutine in-order decoder,
// >1 runs the chunk-parallel decoder with its reorder stage.
//
// Every pipeline goroutine carries pprof labels so -cpuprofile output
// attributes samples to stages: the sequential decoder runs as
// stage=decode and flips to stage=route per broadcast; parallel decode
// workers run as stage=decode with their worker index and the reorder
// stage as stage=reorder. When the log's registry is live the pass also
// publishes the profile.pipeline.* metrics (see PERFORMANCE.md for the
// name contract).
func (l *Log) fanOut(pl *ProcLog, n int,
	consume func(w int, b *fanBatch, window int64, resetDone *bool),
	finalReset func(w int), decodeJobs int) error {

	window := l.window
	met := l.metrics()
	var fm fanMetrics
	busy := make([]*obs.Timer, n)

	djobs := ProfileWorkers(decodeJobs)
	if nc := l.numChunks(); djobs > nc {
		djobs = nc // one chunk cannot be decoded by two workers
	}
	if djobs < 1 {
		djobs = 1
	}

	if met.reg != nil {
		fm.batchesC = met.reg.Counter("profile.pipeline.batches")
		fm.depthG = met.reg.Gauge("profile.pipeline.queue.depth")
		fm.decodeH = met.reg.Histogram("profile.pipeline.batch.decode")
		fm.routeH = met.reg.Histogram("profile.pipeline.batch.route")
		fm.chunkH = met.reg.Histogram("profile.pipeline.decode.chunk")
		met.reg.Gauge("profile.shard.workers").Max(int64(n))
		met.reg.Gauge("profile.pipeline.decode.workers").Max(int64(djobs))
		for w := range busy {
			busy[w] = met.reg.Timer(fmt.Sprintf("profile.shard.%d.busy", w))
		}
	}

	chans := make([]chan *fanBatch, n)
	for w := range chans {
		chans[w] = make(chan *fanBatch, fanQueueDepth)
	}
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels("stage", "profile", "worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				resetDone := false
				for b := range chans[w] {
					var t0 time.Time
					if busy[w] != nil {
						t0 = time.Now()
					}
					consume(w, b, window, &resetDone)
					if busy[w] != nil {
						busy[w].Observe(time.Since(t0))
					}
					if b.refs.Add(-1) == 0 {
						fanBatchPool.Put(b)
					}
				}
				if !resetDone {
					finalReset(w)
				}
			})
		}(w)
	}

	var began time.Time
	if met.reg != nil {
		began = time.Now()
	}
	var err error
	if djobs <= 1 {
		err = l.fanDecodeSequential(pl, chans, fm)
	} else {
		err = l.fanDecodeParallel(pl, chans, fm, djobs)
		if err == nil {
			// The parallel path bypasses ForEach, so account the replay
			// here: exactly one trace.replays increment and one
			// trace.replay observation per completed pass, the invariant
			// E22 cross-checks.
			l.replays++
			met.replays.Add(1)
			if met.reg != nil {
				met.decode.Observe(time.Since(began))
			}
		} else {
			err = l.latchChunk(err)
		}
	}
	wg.Wait()
	return err
}

// broadcast routes one filled batch to every consumer channel, timing the
// fan-out when the route histogram is live.
func broadcast(b *fanBatch, chans []chan *fanBatch, fm fanMetrics) {
	b.refs.Store(int32(len(chans)))
	fm.batchesC.Add(1)
	var t0 time.Time
	if fm.routeH != nil {
		t0 = time.Now()
	}
	for _, ch := range chans {
		fm.depthG.Max(int64(len(ch)) + 1)
		ch <- b
	}
	if fm.routeH != nil {
		fm.routeH.Observe(time.Since(t0))
	}
}

// fanDecodeSequential is the decodeJobs=1 front end: one goroutine
// decodes the whole trace in order (one ForEach — one replay, spilled
// chunks streamed off disk once) and broadcasts fanBatchSize batches.
func (l *Log) fanDecodeSequential(pl *ProcLog, chans []chan *fanBatch, fm fanMetrics) error {
	decodeCtx := pprof.WithLabels(context.Background(), pprof.Labels("stage", "decode"))
	routeCtx := pprof.WithLabels(context.Background(), pprof.Labels("stage", "route"))
	errC := make(chan error, 1)
	go func() {
		pprof.SetGoroutineLabels(decodeCtx)
		var cur *fanBatch
		var batchStart time.Time
		next := int64(0)
		flush := func() {
			if cur == nil {
				return
			}
			if len(cur.blks) == 0 {
				fanBatchPool.Put(cur)
				cur = nil
				return
			}
			if fm.decodeH != nil {
				fm.decodeH.Observe(time.Since(batchStart))
			}
			pprof.SetGoroutineLabels(routeCtx)
			broadcast(cur, chans, fm)
			pprof.SetGoroutineLabels(decodeCtx)
			cur = nil
		}
		emit := func(proc int32, blk int64) {
			if cur == nil {
				cur = getFanBatch()
				cur.start = next
				if fm.decodeH != nil {
					batchStart = time.Now()
				}
			}
			cur.blks = append(cur.blks, blk)
			if pl != nil {
				cur.procs = append(cur.procs, proc)
			}
			next++
			if len(cur.blks) >= fanBatchSize {
				flush()
			}
		}

		var err error
		if pl != nil {
			err = pl.ForEach(func(proc int, blk int64) { emit(int32(proc), blk) })
		} else {
			err = l.ForEach(func(blk int64) { emit(0, blk) })
		}
		if err == nil {
			flush()
		} else if cur != nil {
			fanBatchPool.Put(cur)
			cur = nil
		}
		for _, ch := range chans {
			close(ch)
		}
		errC <- err
	}()
	return <-errC
}

// decodeSlot carries one chunk through the parallel decode stage: the
// dispatcher enqueues slots in chunk order on a bounded queue, a worker
// fills the slot's result, and the reorder stage consumes slots strictly
// in order — blocking on each slot until its worker delivers — so the
// broadcast sees chunks exactly as recorded no matter which worker
// finished first. The slot queue's bound (decodeJobs+decodeReorderSlack)
// is therefore also the reorder buffer's bound.
type decodeSlot struct {
	idx int
	out chan decodedChunk // buffered(1): workers never block delivering
}

// decodedChunk is one chunk's decoded form: its accesses sliced into
// broadcast-ready batches tagged with their global start indices.
type decodedChunk struct {
	batches []*fanBatch
	err     error
}

// fanDecodeParallel is the chunk-parallel front end: djobs workers claim
// sealed chunks (and the open tail) from an ordered queue, decode each
// standalone from its recorded base, and the reorder stage re-sequences
// the batches before broadcasting.
func (l *Log) fanDecodeParallel(pl *ProcLog, chans []chan *fanBatch, fm fanMetrics, djobs int) error {
	if l.err != nil {
		return l.err
	}
	if l.dropped {
		return fmt.Errorf("trace: log closed after spilling; spilled data released")
	}
	if err := l.flushSpill(); err != nil {
		return err
	}
	var runs []procRun
	var ends []int64
	if pl != nil {
		runs = pl.runs
		ends = pl.runEnds()
	}

	numChunks := l.numChunks()
	slots := make(chan *decodeSlot, djobs+decodeReorderSlack)
	work := make(chan *decodeSlot)
	var failed atomic.Bool

	// Dispatcher: create slots in chunk order. Enqueueing on the bounded
	// slots channel first throttles total in-flight chunks; handing the
	// same slot to work lets any idle worker claim it.
	go func() {
		defer close(slots)
		defer close(work)
		for i := 0; i < numChunks; i++ {
			if failed.Load() {
				return
			}
			s := &decodeSlot{idx: i, out: make(chan decodedChunk, 1)}
			slots <- s
			work <- s
		}
	}()

	var dwg sync.WaitGroup
	for w := 0; w < djobs; w++ {
		dwg.Add(1)
		go func(w int) {
			defer dwg.Done()
			labels := pprof.Labels("stage", "decode", "worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(context.Context) {
				var readBuf []byte
				for s := range work {
					if failed.Load() {
						s.out <- decodedChunk{}
						continue
					}
					var t0 time.Time
					if fm.chunkH != nil {
						t0 = time.Now()
					}
					d := l.decodeChunkBatches(s.idx, &readBuf, runs, ends)
					if fm.chunkH != nil && d.err == nil {
						fm.chunkH.Observe(time.Since(t0))
					}
					if d.err != nil {
						failed.Store(true)
					}
					s.out <- d
				}
			})
		}(w)
	}

	// Reorder stage: consume slots strictly in chunk order and broadcast
	// their batches, restoring the exact global access order.
	reorderCtx := pprof.WithLabels(context.Background(), pprof.Labels("stage", "reorder"))
	errC := make(chan error, 1)
	go func() {
		pprof.SetGoroutineLabels(reorderCtx)
		var err error
		for s := range slots {
			d := <-s.out
			if err != nil || d.err != nil {
				if err == nil {
					err = d.err
					failed.Store(true)
				}
				for _, b := range d.batches {
					fanBatchPool.Put(b)
				}
				continue
			}
			for _, b := range d.batches {
				broadcast(b, chans, fm)
			}
		}
		for _, ch := range chans {
			close(ch)
		}
		errC <- err
	}()

	err := <-errC
	dwg.Wait()
	return err
}

// decodeChunkBatches decodes chunk idx standalone from its recorded base
// into broadcast-ready batches of at most fanBatchSize accesses; with a
// run-length table present the chunk's processor tags are derived locally
// via a cursor positioned at the chunk's global start index.
func (l *Log) decodeChunkBatches(idx int, readBuf *[]byte, runs []procRun, ends []int64) decodedChunk {
	meta := l.chunkAt(idx)
	buf, err := l.chunkBytes(idx, readBuf)
	if err != nil {
		return decodedChunk{err: err}
	}
	var pc procCursor
	if runs != nil {
		pc = newProcCursor(runs, ends, meta.start)
	}
	var out []*fanBatch
	var b *fanBatch
	next := meta.start
	err = decodeChunk(buf, meta, idx, func(base, n int64) {
		for end := base + n; base != end; base++ {
			if b == nil || len(b.blks) == fanBatchSize {
				b = getFanBatch()
				b.start = next
				out = append(out, b)
			}
			b.blks = append(b.blks, base)
			if runs != nil {
				b.procs = append(b.procs, int32(pc.next()))
			}
			next++
		}
	})
	if err != nil {
		for _, rb := range out {
			fanBatchPool.Put(rb)
		}
		return decodedChunk{err: err}
	}
	return decodedChunk{batches: out}
}
