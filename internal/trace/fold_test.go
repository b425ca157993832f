package trace_test

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"streamsched/internal/trace"
)

// TestOrgProfilersRepeatEqualsFeeding: on a stream that becomes periodic,
// profilers fed one period after the first, tallied, fed the next and
// repeated k times report exactly the curves of profilers fed all k+2
// periods — and keep profiling the rest of the stream identically. Specs
// cover the unbounded fully-associative stack (past the list→timeline
// upgrade), unbounded and request-bounded set-associative families, dense,
// negative and sparse ids, and a window mark inside the lead-in.
func TestOrgProfilersRepeatEqualsFeeding(t *testing.T) {
	specs := [][]trace.OrgSpec{
		{{Sets: 1}},
		{{Sets: 1}, {Sets: 4}, {Sets: 7}},
		{{Sets: 1}, {Sets: 8, MaxWays: 4}, {Sets: 1, MaxWays: 64}, {Sets: 3, MaxWays: 200}},
	}
	ids := map[string]func(int64) int64{
		"dense":    func(b int64) int64 { return b },
		"negative": func(b int64) int64 { return 50 - b },
		"sparse":   func(b int64) int64 { return b*b*7919 + 1<<40 },
	}
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		footprint := int64(40 + rng.Intn(400)) // both sides of assocListLimit
		lead := randomStream(rng, 200+rng.Intn(2000), footprint)
		period := randomStream(rng, 50+rng.Intn(1500), footprint)
		tail := period[:rng.Intn(len(period))]
		k := int64(1 + rng.Intn(6))
		mark := rng.Intn(len(lead))
		for name, id := range ids {
			for _, sp := range specs {
				fed := func(p *trace.OrgProfilers, blocks []int64) {
					for _, b := range blocks {
						p.Touch(id(b))
					}
				}
				start := func() *trace.OrgProfilers {
					p, err := trace.NewOrgProfilers(sp)
					if err != nil {
						t.Fatal(err)
					}
					fed(p, lead[:mark])
					p.ResetCounts()
					fed(p, lead[mark:])
					fed(p, period)
					return p
				}
				folded, full := start(), start()
				if !folded.Foldable() {
					t.Fatalf("%v: LRU-only profilers not foldable", sp)
				}
				tally := folded.Tally()
				fed(folded, period)
				if err := folded.Repeat(tally, k); err != nil {
					t.Fatal(err)
				}
				for i := int64(0); i <= k; i++ {
					fed(full, period)
				}
				if got, want := folded.Curves(), full.Curves(); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s %v: repeated %d periods, curves differ from feeding them", trial, name, sp, k)
				}
				fed(folded, tail)
				fed(full, tail)
				if got, want := folded.Curves(), full.Curves(); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %s %v: the stream after the repeat profiles differently", trial, name, sp)
				}
			}
		}
	}
}

// TestOrgProfilersRepeatRefuses: FIFO replicas make the profilers
// unfoldable, and a repeat that would overflow a count fails naming int64
// and changes nothing.
func TestOrgProfilersRepeatRefuses(t *testing.T) {
	fifo, err := trace.NewOrgProfilers([]trace.OrgSpec{{Sets: 1}, {Sets: 2, FIFOWays: []int64{4}}})
	if err != nil {
		t.Fatal(err)
	}
	if fifo.Foldable() || fifo.Repeat(fifo.Tally(), 1) == nil {
		t.Error("profilers with a FIFO replica fold")
	}
	p, err := trace.NewOrgProfilers([]trace.OrgSpec{{Sets: 1}, {Sets: 4, MaxWays: 2}})
	if err != nil {
		t.Fatal(err)
	}
	stream := randomStream(rand.New(rand.NewSource(5)), 500, 30)
	for _, b := range stream {
		p.Touch(b)
	}
	tally := p.Tally()
	for _, b := range stream {
		p.Touch(b)
	}
	before := p.Curves()
	if err := p.Repeat(tally, math.MaxInt64/100); err == nil || !strings.Contains(err.Error(), "overflows int64") {
		t.Fatalf("Repeat past int64 = %v, want an overflow error", err)
	}
	if !reflect.DeepEqual(p.Curves(), before) {
		t.Fatal("a refused Repeat changed the counts")
	}
}
