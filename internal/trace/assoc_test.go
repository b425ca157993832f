package trace

import (
	"reflect"
	"testing"
)

// TestMoveToFrontEdges pins the row kernel's single pass at its edges on a
// bounded row: a one-entry row, a hit at depth 1 (row unchanged, nothing
// stored), a hit in the last slot, and a miss on a full row (the last entry
// falls off and the access counts as deep) — and reads the counts back
// through the family's curve, whose depth-1 hits are derived from the
// access count.
func TestMoveToFrontEdges(t *testing.T) {
	touches := func(f *laneRows, slots ...int32) (depths []int) {
		for _, s := range slots {
			depths = append(depths, f.touch(0, s, 0))
		}
		return depths
	}
	one := newLaneRows(1, []int64{1}, 1)
	if got := touches(&one, 7, 7, 8, 7); !reflect.DeepEqual(got, []int{0, 1, 0, 0}) {
		t.Errorf("bound 1: depths %v, want [0 1 0 0]", got)
	}
	if c := one.curve(0, 4, 2); !reflect.DeepEqual(one.rows, []int32{7}) || c.Accesses != 4 || c.Cold != 2 || c.Misses(1) != 3 {
		t.Errorf("bound 1: row %v curve %+v, want [7] and 3 misses of 4 accesses, 2 cold", one.rows, *c)
	}

	b := newLaneRows(2, []int64{1, 2, 4}, 1)
	touches(&b, 1, 2, 3, 4) // set 0 is now full: 4 3 2 1
	full := []int32{4, 3, 2, 1, noSlot, noSlot, noSlot, noSlot}
	if !reflect.DeepEqual(b.rows, full) {
		t.Fatalf("rows %v after four cold touches, want %v", b.rows, full)
	}
	hist := append([]int64(nil), b.hist...)
	if d := b.touch(0, 4, 0); d != 1 || !reflect.DeepEqual(b.rows, full) || !reflect.DeepEqual(b.hist, hist) {
		t.Errorf("hit at depth 1: depth %d rows %v hist %v, want 1 and the row and histogram unchanged", d, b.rows, b.hist)
	}
	if d := b.touch(0, 1, 0); d != 4 || !reflect.DeepEqual(b.rows[:4], []int32{1, 4, 3, 2}) {
		t.Errorf("hit in the last slot: depth %d row %v, want 4 [1 4 3 2]", d, b.rows[:4])
	}
	if d := b.touch(0, 9, 0); d != 0 || !reflect.DeepEqual(b.rows[:4], []int32{9, 1, 4, 3}) {
		t.Errorf("miss on a full row: depth %d row %v, want 0 [9 1 4 3] (2 falls off)", d, b.rows[:4])
	}
	if !reflect.DeepEqual(b.rows[4:], full[4:]) {
		t.Errorf("set 1's row changed: %v", b.rows[4:])
	}
	// Seven accesses: five not found (cold, and 9 past a full row), one at
	// depth 1 and one at depth 4.
	c := b.curve(0, 7, 5)
	if got := []int64{c.Misses(1), c.Misses(2), c.Misses(4)}; c.Accesses != 7 || !reflect.DeepEqual(got, []int64{6, 6, 5}) {
		t.Errorf("curve: %d accesses, misses at 1, 2, 4 ways %v, want 7 and [6 6 5]", c.Accesses, got)
	}
}
