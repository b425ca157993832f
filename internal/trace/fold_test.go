package trace_test

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"streamsched/internal/trace"
)

// recordRuns feeds blocks to p a maximal run of consecutive ids at a time,
// so an unbounded fully-associative family takes whole runs where it can.
func recordRuns(p *trace.OrgProfilers, blocks []int64) {
	for i := 0; i < len(blocks); {
		j := i + 1
		for j < len(blocks) && blocks[j] == blocks[j-1]+1 {
			j++
		}
		p.RecordRun(blocks[i], int64(j-i))
		i = j
	}
}

// TestOrgProfilersOnePeriodFoldEqualsFeeding: on a stream that becomes
// periodic, profilers that warmed up by last use over the lead-in up to
// the window mark, fed the rest of it, recorded one period
// (StartPeriod) and counted k steady repetitions of it (RepeatSteady)
// report exactly the curves of profilers fed everything — lead-in and k+1
// periods — access by access, and keep profiling the rest of the stream
// identically. No second period is fed. Specs cover the unbounded
// fully-associative stack alone (which takes whole runs) and beside
// set-associative families, and request-bounded rows and marker lists
// (fully- and set-associative, down to 1,024 lines), over dense, negative
// and sparse ids.
func TestOrgProfilersOnePeriodFoldEqualsFeeding(t *testing.T) {
	specs := [][]trace.OrgSpec{
		{{Sets: 1}},
		{{Sets: 1}, {Sets: 4, LRUWays: everyKindWays}, {Sets: 7, LRUWays: everyKindWays}},
		{{Sets: 1}, {Sets: 8, LRUWays: []int64{4}}, {Sets: 1, LRUWays: []int64{64}}, {Sets: 3, LRUWays: []int64{200}}},
		{{Sets: 1, LRUWays: []int64{1024, 16, 200}}, {Sets: 2, LRUWays: []int64{256, 40}}, {Sets: 3, LRUWays: []int64{100, 64}}, {Sets: 4, LRUWays: []int64{2, 8}}},
	}
	ids := map[string]func(int64) int64{
		"dense":    func(b int64) int64 { return b },
		"negative": func(b int64) int64 { return 50 - b },
		"sparse":   func(b int64) int64 { return b*b*7919 + 1<<40 },
	}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		footprint := int64(40 + rng.Intn(400)) // both sides of a 100-way set's reach
		lead := randomStream(rng, 200+rng.Intn(2000), footprint)
		period := randomStream(rng, 50+rng.Intn(1500), footprint)
		tail := period[:rng.Intn(len(period))]
		k := int64(1 + rng.Intn(6))
		mark := rng.Intn(len(lead))
		for name, id := range ids {
			mapped := func(blocks []int64) []int64 {
				out := make([]int64, len(blocks))
				for i, b := range blocks {
					out[i] = id(b)
				}
				return out
			}
			lead, period, tail := mapped(lead), mapped(period), mapped(tail)
			for _, sp := range specs {
				folded, err := trace.NewOrgProfilers(sp)
				if err != nil {
					t.Fatal(err)
				}
				full, _ := trace.NewOrgProfilers(sp)
				if !folded.Foldable() {
					t.Fatalf("%v: LRU-only profilers not foldable", sp)
				}
				folded.StartWarmup()
				recordRuns(folded, lead[:mark])
				folded.ResetCounts()
				recordRuns(folded, lead[mark:])
				folded.StartPeriod()
				recordRuns(folded, period)
				if err := folded.RepeatSteady(k); err != nil {
					t.Fatal(err)
				}
				recordRuns(full, lead[:mark])
				full.ResetCounts()
				recordRuns(full, lead[mark:])
				for i := int64(0); i <= k; i++ {
					recordRuns(full, period)
				}
				if got, want := folded.Curves(), full.Curves(); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s %v: one period and %d steady repeats, curves differ from feeding them", trial, name, sp, k)
				}
				recordRuns(folded, tail)
				recordRuns(full, tail)
				if got, want := folded.Curves(), full.Curves(); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s %v: the stream after the repeat profiles differently", trial, name, sp)
				}
			}
		}
	}
}

// TestOrgProfilersRepeatRefuses: FIFO replicas make the profilers
// unfoldable, a repeat that would overflow a count fails naming int64 and
// changes nothing, and repeating zero times only ends the period.
func TestOrgProfilersRepeatRefuses(t *testing.T) {
	fifo, err := trace.NewOrgProfilers([]trace.OrgSpec{{Sets: 1}, {Sets: 2, FIFOWays: []int64{4}, LRUWays: []int64{4}}})
	if err != nil {
		t.Fatal(err)
	}
	fifo.StartPeriod()
	if fifo.Foldable() || fifo.RepeatSteady(1) == nil {
		t.Error("profilers with a FIFO replica fold")
	}
	p, err := trace.NewOrgProfilers([]trace.OrgSpec{{Sets: 1}, {Sets: 4, LRUWays: []int64{2}}})
	if err != nil {
		t.Fatal(err)
	}
	stream := randomStream(rand.New(rand.NewSource(5)), 500, 30)
	for _, b := range stream {
		p.Touch(b)
	}
	p.StartPeriod()
	for _, b := range stream {
		p.Touch(b)
	}
	before := p.Curves()
	if err := p.RepeatSteady(math.MaxInt64 / 100); err == nil || !strings.Contains(err.Error(), "overflows int64") {
		t.Fatalf("RepeatSteady past int64 = %v, want an overflow error", err)
	}
	if !reflect.DeepEqual(p.Curves(), before) {
		t.Fatal("a refused RepeatSteady changed the counts")
	}
	p.StartPeriod()
	for _, b := range stream {
		p.Touch(b)
	}
	before = p.Curves()
	if err := p.RepeatSteady(0); err != nil || !reflect.DeepEqual(p.Curves(), before) {
		t.Fatalf("RepeatSteady(0) = %v or changed the counts", err)
	}
}
