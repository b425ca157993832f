package trace

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"streamsched/internal/obs"
)

func TestSweepRunsAllJobsInOrder(t *testing.T) {
	var ran atomic.Int64
	jobs := make([]Job[int], 37)
	for i := range jobs {
		jobs[i] = Job[int]{
			Name: fmt.Sprintf("job%d", i),
			Run: func() (int, error) {
				ran.Add(1)
				return i * i, nil
			},
		}
	}
	out := Sweep(jobs, 4)
	if ran.Load() != int64(len(jobs)) {
		t.Fatalf("ran %d jobs, want %d", ran.Load(), len(jobs))
	}
	for i, o := range out {
		if o.Err != nil {
			t.Fatalf("job %d: %v", i, o.Err)
		}
		if o.Name != jobs[i].Name || o.Value != i*i {
			t.Fatalf("outcome %d = (%s,%d), want (%s,%d)", i, o.Name, o.Value, jobs[i].Name, i*i)
		}
	}
}

func TestSweepSurvivesErrors(t *testing.T) {
	boom := errors.New("boom")
	jobs := []Job[string]{
		{Name: "ok", Run: func() (string, error) { return "fine", nil }},
		{Name: "bad", Run: func() (string, error) { return "", boom }},
		{Name: "ok2", Run: func() (string, error) { return "also fine", nil }},
	}
	out := Sweep(jobs, 0) // default worker count
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("healthy jobs errored: %v %v", out[0].Err, out[2].Err)
	}
	if !errors.Is(out[1].Err, boom) {
		t.Fatalf("job 1 error = %v, want boom", out[1].Err)
	}
}

func TestSweepEmpty(t *testing.T) {
	if out := Sweep[int](nil, 8); len(out) != 0 {
		t.Fatalf("empty sweep returned %d outcomes", len(out))
	}
}

// TestSweepPublishesOneObservationPerJob pins the pool's metrics on the
// process-wide registry: sweep.jobs counts every job, sweep.queue.wait and
// sweep.job.duration observe each exactly once, and the per-worker job
// counters sum to the total, at one worker and at three.
func TestSweepPublishesOneObservationPerJob(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.SetDefault(obs.SetDefault(reg))
	const n = 7
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = Job[int]{Name: fmt.Sprintf("job%d", i), Run: func() (int, error) { return i, nil }}
	}
	for _, workers := range []int{1, 3} {
		base := reg.Snapshot()
		Sweep(jobs, workers)
		snap := reg.Snapshot()
		var perWorker int64
		for w := 0; w < workers; w++ {
			perWorker += snap.CounterDelta(base, fmt.Sprintf("sweep.worker.%d.jobs", w))
		}
		for _, c := range []struct {
			name string
			got  int64
		}{
			{"sweep.jobs", snap.CounterDelta(base, "sweep.jobs")},
			{"sweep.queue.wait count", snap.Histograms["sweep.queue.wait"].Count - base.Histograms["sweep.queue.wait"].Count},
			{"sweep.job.duration count", snap.Histograms["sweep.job.duration"].Count - base.Histograms["sweep.job.duration"].Count},
			{"sum of sweep.worker.<i>.jobs", perWorker},
		} {
			if c.got != n {
				t.Errorf("workers=%d: %s = %d, want %d", workers, c.name, c.got, n)
			}
		}
		for _, j := range jobs {
			name := "sweep.job[" + j.Name + "]"
			if got := snap.Histograms[name].Count - base.Histograms[name].Count; got != 1 {
				t.Errorf("workers=%d: %s timed %d runs, want 1", workers, name, got)
			}
		}
	}
}
