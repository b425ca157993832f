package trace

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"streamsched/internal/obs"
)

// randomShardLog builds a trace with a mix of strided, looping, and random
// accesses (including negative block ids, which the set routing must
// floor-fix), windowed at a random position.
func randomShardLog(t *testing.T, rng *rand.Rand, n int, spill bool) *Log {
	t.Helper()
	l := NewLog()
	if spill {
		l.SetSpillThreshold(1) // spill every sealed chunk
		n *= 30                // enough encoded bytes to actually seal chunks
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
	if spill && !l.Spilled() {
		t.Fatal("spill variant did not spill; grow the trace")
	}
	return l
}

// TestProfileOrgsJobsMatchesSequential pins what is left of the jobs
// knobs on organisation grids: every (jobs, decodejobs) value is accepted,
// returns the curves ProfileOrgs returns, and costs exactly one replay.
func TestProfileOrgsJobsMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	specs := []OrgSpec{
		{Sets: 1, FIFOWays: []int64{32, 64}},
		{Sets: 4, FIFOWays: []int64{8}, MaxWays: 8},
		{Sets: 3, FIFOWays: []int64{2, 24}},
	}
	for _, spill := range []bool{false, true} {
		l := randomShardLog(t, rng, 3000, spill)
		want, err := ProfileOrgs(l, specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, jobs := range []int{0, 1, 3} {
			for _, djobs := range []int{0, 1, 4} {
				before := l.Replays()
				got, err := ProfileOrgsJobs(l, specs, jobs, djobs)
				if err != nil {
					t.Fatalf("jobs=%d decodejobs=%d: %v", jobs, djobs, err)
				}
				if l.Replays() != before+1 {
					t.Fatalf("jobs=%d decodejobs=%d: %d replays for one pass", jobs, djobs, l.Replays()-before)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("spill=%v jobs=%d decodejobs=%d: curves differ from ProfileOrgs", spill, jobs, djobs)
				}
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFanOutWorkerGauges asserts what FanOut publishes about its pool:
// profile.shard.workers is the consumer count, and the decode worker
// count (profile.pipeline.decode.workers) is capped at the trace's chunk
// count — a small in-memory trace is one chunk, so a huge decodeJobs
// collapses to 1.
func TestFanOutWorkerGauges(t *testing.T) {
	reg := obs.NewRegistry()
	l := NewLog()
	l.SetMetrics(reg)
	for i := 0; i < 1000; i++ {
		l.RecordBlock(int64((i * 3) % 9))
	}
	cons := []WindowedConsumer{&recordingConsumer{}, &recordingConsumer{}, &recordingConsumer{}}
	if err := l.FanOut(cons, 16); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if w := snap.Gauges["profile.shard.workers"]; w != 3 {
		t.Fatalf("profile.shard.workers = %d, want 3", w)
	}
	if w := snap.Gauges["profile.pipeline.decode.workers"]; w != 1 {
		t.Fatalf("profile.pipeline.decode.workers = %d, want 1 (single-chunk trace)", w)
	}
}

// recordingConsumer captures the stream a FanOut consumer sees, with the
// reset position, for comparison against ForEachWindowed.
type recordingConsumer struct {
	blks    []int64
	resetAt int
	resets  int
}

func (r *recordingConsumer) ResetCounts() { r.resetAt = len(r.blks); r.resets++ }
func (r *recordingConsumer) Touch(blk int64) {
	r.blks = append(r.blks, blk)
}

// TestFanOutMatchesForEachWindowed checks the pipeline's delivery
// contract directly: every consumer sees the full stream in order with
// exactly one reset at the window position, at every decode width.
func TestFanOutMatchesForEachWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	djobsList := []int{1, 2, runtime.NumCPU(), 16}
	for trial := 0; trial < 10; trial++ {
		spill := trial%2 == 1
		djobs := djobsList[trial%len(djobsList)]
		l := randomShardLog(t, rng, 2500+rng.Intn(3000), spill)

		var wantBlks []int64
		wantReset := -1
		if err := l.ForEachWindowed(
			func() { wantReset = len(wantBlks) },
			func(blk int64) { wantBlks = append(wantBlks, blk) },
		); err != nil {
			t.Fatal(err)
		}

		cons := make([]WindowedConsumer, 3)
		recs := make([]*recordingConsumer, 3)
		for i := range cons {
			recs[i] = &recordingConsumer{resetAt: -1}
			cons[i] = recs[i]
		}
		if err := l.FanOut(cons, djobs); err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if r.resets != 1 {
				t.Fatalf("decodejobs=%d consumer %d: %d resets", djobs, i, r.resets)
			}
			if r.resetAt != wantReset {
				t.Fatalf("decodejobs=%d consumer %d: reset at %d, want %d", djobs, i, r.resetAt, wantReset)
			}
			if !reflect.DeepEqual(r.blks, wantBlks) {
				t.Fatalf("decodejobs=%d consumer %d: stream differs from ForEachWindowed", djobs, i)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
