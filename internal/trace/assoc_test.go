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
