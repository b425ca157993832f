package trace_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/trace"
)

// boundedSpecs draws oracleSpecs whose fully-associative specs all list
// their way counts, as lanes require.
func boundedSpecs(rng *rand.Rand, nblocks int64) []trace.OrgSpec {
	specs := oracleSpecs(rng, nblocks)
	for i := range specs {
		if len(specs[i].LRUWays) == 0 {
			specs[i].LRUWays = everyKindWays
		}
	}
	return specs
}

// laneMasks draws one mask per access of the stream over n lanes: every
// block's first access goes to all of them, as a hierarchy's L1 miss masks
// do, and the rest to a random subset — sparse, dense or empty.
func laneMasks(rng *rand.Rand, stream []int64, n int) []uint64 {
	all := uint64(1)<<n - 1
	seen := make(map[int64]bool)
	masks := make([]uint64, len(stream))
	for i, blk := range stream {
		switch {
		case !seen[blk]:
			masks[i] = all
		case rng.Intn(8) == 0:
			masks[i] = 0
		case rng.Intn(2) == 0:
			masks[i] = rng.Uint64() & all
		default:
			masks[i] = rng.Uint64() & rng.Uint64() & rng.Uint64() & all
		}
		seen[blk] = true
	}
	return masks
}

// TestOrgLanesMatchOrgProfilers is the lanes' oracle: on random masked
// streams whose first uses reach every lane — dense, sparse, negative and
// mixed ids; random bounded spec lists with rows and marker lists on both
// sides of the crossover and FIFO replicas; 1 to 64 lanes; counting from
// the first access, or from a random mark with or without a warm-up that
// starts at a random point before it — every lane's
// curves equal those of a separate OrgProfilers fed that lane's stream
// alone, with the same warm-up and mark.
func TestOrgLanesMatchOrgProfilers(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	specLists := [][]trace.OrgSpec{kindSpecs(true)[1:], kindSpecs(false)[1:]} // every kind but the unbounded stack
	for trial := 0; trial < 40; trial++ {
		nblocks := int64(20 + rng.Intn(1200))
		n := 500 + rng.Intn(6000)
		stream := oracleStream(rng, n, nblocks, trial%4)
		if trial%2 == 0 {
			stream[0] = 0 // slot 0 opens every set-0 row: what a zeroed row entry would hold
		}
		specs := boundedSpecs(rng, nblocks)
		if trial < len(specLists) {
			specs = specLists[trial]
		}
		lanes := []int{1, 2, 7, 64, 1 + rng.Intn(64)}[trial%5]
		masks := laneMasks(rng, stream, lanes)
		warm, mark := -1, rng.Intn(n+1)
		switch trial % 4 {
		case 0:
			mark = 0 // every access counted, the first sights too
		case 1: // no warm-up
		default:
			warm = rng.Intn(mark + 1)
		}
		label := fmt.Sprintf("trial %d (%d lanes, warm-up %d, mark %d of %d)", trial, lanes, warm, mark, n)

		l, err := trace.NewOrgLanes(specs, lanes)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		refs := make([]*trace.OrgProfilers, lanes)
		for i := range refs {
			if refs[i], err = trace.NewOrgProfilers(specs); err != nil {
				t.Fatal(err)
			}
		}
		step := func(i int) {
			if i == warm {
				l.StartWarmup()
				for _, p := range refs {
					p.StartWarmup()
				}
			}
			if i == mark {
				l.ResetCounts()
				for _, p := range refs {
					p.ResetCounts()
				}
			}
		}
		for i, blk := range stream {
			step(i)
			l.Touch(blk, masks[i])
			for lane, p := range refs {
				if masks[i]>>lane&1 == 1 {
					p.Touch(blk)
				}
			}
		}
		step(n)
		for lane, p := range refs {
			if got, want := l.Curves(lane), p.Curves(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s lane %d: lanes and OrgProfilers differ:\nlanes: %s\nalone: %s", label, lane, curvesString(got), curvesString(want))
			}
		}
	}
}

// curvesString spells out a curve list for a failure message.
func curvesString(cs []*trace.OrgCurves) string {
	var sb strings.Builder
	for _, c := range cs {
		fmt.Fprintf(&sb, "{%+v LRU %+v FIFO %+v} ", c.Spec, *c.LRU, c.FIFO)
	}
	return sb.String()
}

// TestOrgLanesPartialFirstSightPanics: the lanes share one block table, so
// a block whose first access leaves a lane out must stop the pass, naming
// that lane — for a dense id and a sparse one alike. Warm-ups and empty
// masks are not first sights.
func TestOrgLanesPartialFirstSightPanics(t *testing.T) {
	specs := []trace.OrgSpec{{Sets: 4, LRUWays: []int64{2}, FIFOWays: []int64{2}}, {Sets: 1, LRUWays: []int64{40}}}
	for _, blk := range []int64{7, -3, 1 << 40} {
		l, err := trace.NewOrgLanes(specs, 3)
		if err != nil {
			t.Fatal(err)
		}
		l.Touch(1, 0b111)
		l.Touch(1, 0b010)
		l.Touch(blk, 0)
		func() {
			defer func() {
				r := recover()
				if r == nil || !strings.Contains(fmt.Sprint(r), "lane 1 ") {
					t.Errorf("block %d first seen by lanes 0 and 2: recovered %v, want a panic naming lane 1", blk, r)
				}
			}()
			l.Touch(blk, 0b101)
		}()
	}
}

// TestOrgLanesRefusesBadShapes: lanes take 1 to 64 streams over bounded
// specs only, and a mask table at most 64 points, none on the unbounded
// stack.
func TestOrgLanesRefusesBadShapes(t *testing.T) {
	ok := []trace.OrgSpec{{Sets: 1, LRUWays: []int64{8}}}
	for _, n := range []int{0, 65} {
		if _, err := trace.NewOrgLanes(ok, n); err == nil {
			t.Errorf("%d lanes accepted", n)
		}
	}
	if _, err := trace.NewOrgLanes([]trace.OrgSpec{{Sets: 1}}, 2); err == nil || !strings.Contains(err.Error(), "LRUWays") {
		t.Errorf("unbounded spec: err %v, want a refusal naming LRUWays", err)
	}
	if _, err := trace.NewOrgLanes([]trace.OrgSpec{{Sets: 0, LRUWays: []int64{1}}}, 2); err == nil {
		t.Error("invalid spec accepted")
	}
	p, err := trace.NewOrgProfilers(ok)
	if err != nil {
		t.Fatal(err)
	}
	pt, _ := p.Point(0, 8, false)
	if _, err := p.MaskTable(make([]trace.OrgPoint, 65)); err == nil {
		t.Error("a 65-point mask table accepted")
	}
	if _, err := p.MaskTable([]trace.OrgPoint{pt}); err != nil {
		t.Error(err)
	}
	full, err := trace.NewOrgProfilers([]trace.OrgSpec{{Sets: 1}, {Sets: 2, LRUWays: []int64{4}}})
	if err != nil {
		t.Fatal(err)
	}
	bounded, _ := full.Point(1, 4, false)
	unbounded, _ := full.Point(0, 8, false)
	if _, err := full.MaskTable([]trace.OrgPoint{bounded, unbounded}); err == nil || !strings.Contains(err.Error(), "point 1 ") {
		t.Errorf("a point on the unbounded stack: err %v, want a refusal naming point 1", err)
	}
}

// TestOrgProfilersMissMaskMatchesMissed: after every access, bit i of
// MissMask is Missed of point i — on random bounded spec lists, rows and
// marker lists up to 1,024 deep, with FIFO replicas spread over more than
// one mask word of the bank, for random lists of up to 64 points in any
// order, duplicates included — and the verdicts themselves match a
// cachesim.Bank.
func TestOrgProfilersMissMaskMatchesMissed(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 30; trial++ {
		nblocks := int64(20 + rng.Intn(800))
		stream := oracleStream(rng, 3000, nblocks, trial%4)
		specs := append(boundedSpecs(rng, nblocks), trace.OrgSpec{Sets: 2, LRUWays: []int64{3}})
		for w := int64(2); w < 90; w++ {
			specs[len(specs)-1].FIFOWays = append(specs[len(specs)-1].FIFOWays, w)
		}
		p, err := trace.NewOrgProfilers(specs)
		if err != nil {
			t.Fatal(err)
		}
		type point struct {
			name       string
			pt         trace.OrgPoint
			sets, ways int64
			policy     cachesim.Policy
			bank       *cachesim.Bank
		}
		var all []point
		for i, s := range specs {
			for _, w := range s.LRUWays {
				pt, _ := p.Point(i, w, false)
				all = append(all, point{fmt.Sprintf("spec %d LRU %d", i, w), pt, s.Sets, w, cachesim.LRU, nil})
			}
			for _, w := range s.FIFOWays {
				pt, _ := p.Point(i, w, true)
				all = append(all, point{fmt.Sprintf("spec %d FIFO %d", i, w), pt, s.Sets, w, cachesim.FIFO, nil})
			}
		}
		pts := make([]point, 1+rng.Intn(64))
		for i := range pts {
			pts[i] = all[rng.Intn(len(all))]
			pts[i].bank = cachesim.NewBank(pts[i].sets, pts[i].ways, pts[i].policy)
		}
		ops := make([]trace.OrgPoint, len(pts))
		for i := range pts {
			ops[i] = pts[i].pt
		}
		table, err := p.MaskTable(ops)
		if err != nil {
			t.Fatal(err)
		}
		for i, blk := range stream {
			p.Touch(blk)
			mask := p.MissMask(table)
			for k, q := range pts {
				miss := !q.bank.Access(blk)
				if miss {
					q.bank.Insert(blk)
				}
				if bit := mask>>k&1 == 1; bit != p.Missed(q.pt) || bit != miss {
					t.Fatalf("trial %d access %d (block %d) point %d %s: mask bit %v, Missed %v, bank %v", trial, i, blk, k, q.name, bit, p.Missed(q.pt), miss)
				}
			}
		}
	}
}
