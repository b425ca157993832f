package trace

import (
	"reflect"
	"testing"
)

// TestMoveToFrontEdges pins the stack kernel's single pass at its edges on
// a bounded row: a one-entry row, a hit at depth 1 (row unchanged), a hit in
// the last slot, and a miss on a full row (the last entry falls off and the
// access counts as deep).
func TestMoveToFrontEdges(t *testing.T) {
	touches := func(b *boundedStacks, slots ...int32) (depths []int) {
		for _, s := range slots {
			depths = append(depths, b.touch(0, s))
		}
		return depths
	}
	one := newBoundedStacks(1, []int64{1})
	if got := touches(one, 7, 7, 8, 7); !reflect.DeepEqual(got, []int{0, 1, 0, 0}) {
		t.Errorf("bound 1: depths %v, want [0 1 0 0]", got)
	}
	if !reflect.DeepEqual(one.rows, []int32{7}) || !reflect.DeepEqual(one.hist, []int64{3, 1}) {
		t.Errorf("bound 1: row %v hist %v, want [7] [3 1]", one.rows, one.hist)
	}

	b := newBoundedStacks(2, []int64{4})
	touches(b, 1, 2, 3, 4) // set 0 is now full: 4 3 2 1
	full := []int32{4, 3, 2, 1, noSlot, noSlot, noSlot, noSlot}
	if !reflect.DeepEqual(b.rows, full) {
		t.Fatalf("rows %v after four cold touches, want %v", b.rows, full)
	}
	if d := b.touch(0, 4); d != 1 || !reflect.DeepEqual(b.rows, full) {
		t.Errorf("hit at depth 1: depth %d rows %v, want 1 and the row unchanged", d, b.rows)
	}
	if d := b.touch(0, 1); d != 4 || !reflect.DeepEqual(b.rows[:4], []int32{1, 4, 3, 2}) {
		t.Errorf("hit in the last slot: depth %d row %v, want 4 [1 4 3 2]", d, b.rows[:4])
	}
	if d := b.touch(0, 9); d != 0 || !reflect.DeepEqual(b.rows[:4], []int32{9, 1, 4, 3}) {
		t.Errorf("miss on a full row: depth %d row %v, want 0 [9 1 4 3] (2 falls off)", d, b.rows[:4])
	}
	if !reflect.DeepEqual(b.rows[4:], full[4:]) {
		t.Errorf("set 1's row changed: %v", b.rows[4:])
	}
	if want := []int64{5, 1, 0, 0, 1}; !reflect.DeepEqual(b.hist, want) {
		t.Errorf("hist %v, want %v (hist[0] counts the deep and cold accesses)", b.hist, want)
	}
}

// TestSetStackDepthsAcrossUpgrade: a set stack reports the same depths from
// its list stage, on the touch that upgrades it, and from the timeline it
// upgraded to — checked against a naive move-to-front stack on a stream
// that grows past assocListLimit and keeps re-reading old blocks.
func TestSetStackDepthsAcrossUpgrade(t *testing.T) {
	s := setStack{list: &listStack{}}
	var naive []int64
	touch := func(blk int64) {
		want := 0
		for i, b := range naive {
			if b == blk {
				want = i + 1
				naive = append(naive[:i], naive[i+1:]...)
				break
			}
		}
		naive = append([]int64{blk}, naive...)
		if got := s.touch(blk); got != want {
			t.Fatalf("block %d with %d on the stack (upgraded: %v): depth %d, want %d", blk, len(naive)-1, s.mat != nil, got, want)
		}
	}
	for blk := int64(0); blk < 2*assocListLimit; blk++ {
		touch(-blk) // negative ids: the list holds ids, the timeline indexes them
		touch(-blk / 2)
		touch(-blk) // depth 2 (or 1), either side of the upgrade
		if upgraded := s.mat != nil; upgraded != (len(naive) > assocListLimit) {
			t.Fatalf("%d blocks on the stack, upgraded = %v", len(naive), upgraded)
		}
	}
	for blk := int64(2*assocListLimit) - 1; blk >= 0; blk -= 7 {
		touch(-blk) // deep re-reads from the timeline
	}
	c := s.counts()
	if want := int64(2 * assocListLimit); c.cold != want {
		t.Errorf("cold = %d, want %d", c.cold, want)
	}
	var counted int64
	for _, n := range c.hist {
		counted += n
	}
	if want := int64(4*assocListLimit + (2*assocListLimit+6)/7); counted != want {
		t.Errorf("histogram holds %d re-references, want %d (the list's tally must survive the upgrade)", counted, want)
	}
}
