package trace

import (
	"context"
	"fmt"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"streamsched/internal/obs"
)

// Job is one unit of sweep work: typically "record and profile one
// (scheduler, workload) pair". Run executes on a pool goroutine.
type Job[T any] struct {
	Name string
	Run  func() (T, error)
}

// Outcome pairs a job's name with its result or error.
type Outcome[T any] struct {
	Name  string
	Value T
	Err   error
}

// Sweep runs the jobs on a bounded goroutine pool (workers <= 0 means
// GOMAXPROCS) and returns the outcomes in job order. Every job runs even
// if earlier jobs fail; callers decide how to combine errors.
//
// When the process-wide obs registry is live, each pool drain publishes
// sweep.jobs and per-worker sweep.worker.<i>.jobs counters, the
// sweep.queue.wait histogram (time from submission to a worker picking
// the job up), a per-variant sweep.job[<name>] histogram, and the aggregate
// sweep.job.duration histogram (per-job wall time across all variants,
// with percentiles).
//
// Pool goroutines run under pprof labels (stage=sweep, worker=<i>, and
// job=<name> around each job), so a -cpuprofile taken during a sweep
// attributes samples to workers and job variants.
func Sweep[T any](jobs []Job[T], workers int) []Outcome[T] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	out := make([]Outcome[T], len(jobs))
	if len(jobs) == 0 {
		return out
	}
	reg := obs.Default()
	reg.Gauge("sweep.workers").Max(int64(workers))
	type item struct {
		idx      int
		enqueued time.Time
	}
	next := make(chan item)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels("stage", "sweep", "worker", strconv.Itoa(w))
			pprof.Do(context.Background(), labels, func(ctx context.Context) {
				workerJobs := reg.Counter(fmt.Sprintf("sweep.worker.%d.jobs", w))
				totalJobs := reg.Counter("sweep.jobs")
				queueWait := reg.Histogram("sweep.queue.wait")
				jobDur := reg.Histogram("sweep.job.duration")
				for it := range next {
					i := it.idx
					if reg != nil {
						queueWait.Observe(time.Since(it.enqueued))
					}
					stop := reg.Histogram("sweep.job[" + jobs[i].Name + "]").Start()
					stopDur := jobDur.Start()
					var v T
					var err error
					pprof.Do(ctx, pprof.Labels("job", jobs[i].Name), func(context.Context) {
						v, err = jobs[i].Run()
					})
					stopDur()
					stop()
					workerJobs.Add(1)
					totalJobs.Add(1)
					out[i] = Outcome[T]{Name: jobs[i].Name, Value: v, Err: err}
				}
			})
		}(w)
	}
	for i := range jobs {
		it := item{idx: i}
		if reg != nil {
			it.enqueued = time.Now()
		}
		next <- it
	}
	close(next)
	wg.Wait()
	return out
}
