package trace_test

// Streamed == replayed for the organisation profilers: the profile the
// production path takes while the execution runs (OrgProfilers as the
// machine's recorder, ResetCounts as the window mark) must equal the
// profile of the same window recorded into a Log and replayed once, with
// the window mark inside the trace. ProfileHier's and ProfileShared's
// counterparts live in internal/hierarchy.

import (
	"math/rand"
	"reflect"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/randgraph"
	"streamsched/internal/schedule"
	"streamsched/internal/trace"
)

func TestProfileOrgsSpillIdentical(t *testing.T) {
	g, err := randgraph.RandomPipeline(rand.New(rand.NewSource(31)),
		randgraph.PipelineSpec{Nodes: 24, StateMin: 128, StateMax: 256, RateMax: 1})
	if err != nil {
		t.Fatal(err)
	}
	env := schedule.Env{M: 512, B: 16}
	orgs := []trace.OrgSpec{
		{Sets: 1, FIFOWays: []int64{16, 64}},
		{Sets: 8, FIFOWays: []int64{4}, LRUWays: []int64{1, 4, 16, 40, 100}},
		{Sets: 32, LRUWays: []int64{1, 4, 16, 40, 100}},
	}
	const warm, measured = 256, 2048
	for _, s := range []schedule.Scheduler{schedule.FlatTopo{}, schedule.Partitioned(g, nil)} {
		streamed, err := schedule.MeasureCurveOrgs(g, s, env, env.B, warm, measured, orgs)
		if err != nil {
			t.Fatal(err)
		}
		l := trace.NewLog()
		if _, _, err := (schedule.Window{
			Span:     "replayed",
			Cache:    cachesim.Config{Block: env.B},
			Recorder: l,
			Mark:     func(*exec.Machine) { l.MarkWindow() },
		}).Measure(g, s, env, warm, measured); err != nil {
			t.Fatal(err)
		}
		if l.WindowStart() == 0 {
			t.Fatalf("%s: window at 0; the replay crosses no mark", s.Name())
		}
		replayed, err := trace.ProfileOrgs(l, append([]trace.OrgSpec{{Sets: 1}}, orgs...))
		if err != nil {
			t.Fatal(err)
		}
		if l.Replays() != 1 {
			t.Errorf("%s: ProfileOrgs paid %d replays, want 1", s.Name(), l.Replays())
		}
		if streamed.TraceLen != l.Len() {
			t.Errorf("%s: streamed pass profiled %d accesses, the log recorded %d", s.Name(), streamed.TraceLen, l.Len())
		}
		if !reflect.DeepEqual(streamed.Curve, replayed[0].LRU.Full()) {
			t.Errorf("%s: streamed fully-associative curve differs from the replayed one", s.Name())
		}
		if !reflect.DeepEqual(streamed.Orgs, replayed[1:]) {
			t.Errorf("%s: streamed organisation curves differ from the replayed ones", s.Name())
		}
		// Spot-check evaluation points so a DeepEqual false negative on
		// unexported state cannot hide a real divergence silently.
		for i, c := range streamed.Orgs {
			for _, w := range []int64{1, 4, 16} {
				if a, b := c.LRU.Misses(w), replayed[1+i].LRU.Misses(w); a != b {
					t.Errorf("%s spec %d LRU ways %d: streamed %d, replayed %d", s.Name(), i, w, a, b)
				}
			}
		}
	}
}
