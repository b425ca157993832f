package trace_test

import (
	"fmt"
	"testing"

	"streamsched/internal/trace"
)

// fuzzRuns turns fuzz bytes into runs, three bytes each: where the run
// starts (small ids, negative ids reaching across zero, ids past the
// dense table's first size, huge ids), how long it is (1–80), and whether
// the window mark falls somewhere inside it (the last mark wins, as
// MarkWindow does). It returns the runs, the expanded stream and the
// index of the first measured access.
func fuzzRuns(data []byte) (runs [][2]int64, cuts []int64, stream []int64, warm int) {
	if len(data) > 3*600 {
		data = data[:3*600] // the naive stack costs O(depth) an access
	}
	for ; len(data) >= 3; data = data[3:] {
		at, n := int64(data[1]), 1+int64(data[2])%80
		var base int64
		switch data[0] & 3 {
		case 0:
			base = at
		case 1:
			base = 20 - at
		case 2:
			base = 4000 + at // grows the dense table mid-run
		default:
			base = 1<<40 + at*3
		}
		cut := int64(-1)
		if data[0]&4 != 0 {
			cut = at % (n + 1)
			warm = len(stream) + int(cut)
		}
		runs, cuts = append(runs, [2]int64{base, n}), append(cuts, cut)
		for b := base; b < base+n; b++ {
			stream = append(stream, b)
		}
	}
	return runs, cuts, stream, warm
}

// fuzzWays turns fuzz bytes into an LRU way list, one way count a byte (at
// most eight): 1–128 when the top bit is clear, else multiples of 8 up to
// 1,024 — both sides of the row/marker crossover. Order and duplicates
// stay as drawn.
func fuzzWays(data []byte) []int64 {
	var ways []int64
	for i, b := range data {
		if i == 8 {
			break
		}
		if b&0x80 == 0 {
			ways = append(ways, 1+int64(b))
		} else {
			ways = append(ways, 8*(1+int64(b&0x7f)))
		}
	}
	return ways
}

// fuzzFIFO turns fuzz bytes into FIFO specs: the first byte's bits choose
// set counts 1–8 (bit i: i+1 sets, so 3, 5, 6 and 7 are not powers of
// two), and each later byte (at most sixteen) a FIFO way count 1–64, order
// and duplicates as drawn. Every set count replays every way count, so
// eight set counts and nine distinct way counts past one hold more
// replicas than one mask word. A spec lists one LRU way count, as a spec
// of more than one set must list some.
func fuzzFIFO(data []byte) []trace.OrgSpec {
	if len(data) < 2 {
		return nil
	}
	var ways []int64
	for i, b := range data[1:] {
		if i == 16 {
			break
		}
		ways = append(ways, 1+int64(b&0x3f))
	}
	var specs []trace.OrgSpec
	for i := range 8 {
		if data[0]&(1<<i) != 0 {
			specs = append(specs, trace.OrgSpec{Sets: int64(i + 1), LRUWays: []int64{1}, FIFOWays: ways})
		}
	}
	return specs
}

// fifoBudget bounds the bank accesses of FuzzProfilerRuns' FIFO oracle:
// points (LRU and FIFO) times accesses.
const fifoBudget = 1 << 20

// FuzzProfilerRuns checks the run paths end to end on arbitrary run
// streams: a log recorded with RecordRun replays the stream it was given,
// and profiling it run by run (Profile: ForEachRunWindowed into
// Profiler.TouchRun) gives the curve that block-by-block Touch calls give,
// which is the curve of a naive move-to-front stack — at every capacity.
// The same runs also feed a fully-associative OrgProfilers that lists the
// way counts fuzzWays draws from the second argument (rows or marker
// lists), which must match the naive stack at each of them, and the FIFO
// specs fuzzFIFO draws from the third: each replica's window misses off
// the run-fed log, and every access's Missed verdict fed block by block,
// must match a cachesim.Bank FIFO replay. The seed corpus is
// testdata/fuzz/FuzzProfilerRuns.
func FuzzProfilerRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, wayBytes, fifoBytes []byte) {
		runs, cuts, stream, warm := fuzzRuns(data)
		l := trace.NewLog()
		for i, r := range runs {
			if cuts[i] < 0 {
				l.RecordRun(r[0], r[1])
				continue
			}
			l.RecordRun(r[0], cuts[i])
			l.MarkWindow()
			l.RecordRun(r[0]+cuts[i], r[1]-cuts[i])
		}
		if l.Len() != int64(len(stream)) || l.WindowStart() != int64(warm) {
			t.Fatalf("log holds %d accesses, window %d; recorded %d, window %d", l.Len(), l.WindowStart(), len(stream), warm)
		}
		i := 0
		err := l.ForEach(func(blk int64) {
			if i < len(stream) && blk != stream[i] {
				t.Fatalf("replayed access %d is block %d, recorded %d", i, blk, stream[i])
			}
			i++
		})
		if err != nil || i != len(stream) {
			t.Fatalf("replayed %d of %d accesses: %v", i, len(stream), err)
		}
		runFed := trace.Profile(l)

		blockFed := trace.NewProfiler()
		var stack []int64       // naive Mattson: most recent first
		depths := []int64{0}    // depths[d]: measured accesses found at depth d
		var cold, counted int64 // measured first-ever accesses, measured accesses
		for i, blk := range stream {
			if i == warm {
				blockFed.ResetCounts()
			}
			blockFed.Touch(blk)
			d := 0
			for d < len(stack) && stack[d] != blk {
				d++
			}
			first := d == len(stack) // blocks never leave the stack
			if first {
				stack = append(stack, blk)
				depths = append(depths, 0)
			}
			copy(stack[1:d+1], stack[:d])
			stack[0] = blk
			if i >= warm {
				counted++
				if first {
					cold++
				} else {
					depths[d+1]++
				}
			}
		}
		if len(stream) <= warm {
			blockFed.ResetCounts()
		}
		want := blockFed.Curve()
		if runFed.Accesses != counted || want.Accesses != counted || runFed.Cold != cold || want.Cold != cold {
			t.Fatalf("accesses/cold: run-fed %d/%d, block-fed %d/%d, naive stack %d/%d",
				runFed.Accesses, runFed.Cold, want.Accesses, want.Cold, counted, cold)
		}
		misses := counted // at 0 lines everything misses
		for lines := int64(0); lines <= int64(len(stack))+1; lines++ {
			if lines > 0 && lines < int64(len(depths)) {
				misses -= depths[lines]
			}
			if a, b := runFed.Misses(lines), want.Misses(lines); a != misses || b != misses {
				t.Fatalf("%d lines: run-fed %d misses, block-fed %d, naive stack %d", lines, a, b, misses)
			}
		}

		if ways := fuzzWays(wayBytes); len(ways) > 0 {
			orgs, err := trace.ProfileOrgs(l, []trace.OrgSpec{{Sets: 1, LRUWays: ways}})
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range ways {
				misses := counted
				for d := int64(1); d <= w && d < int64(len(depths)); d++ {
					misses -= depths[d]
				}
				if got, ok := orgs[0].Misses(w, false); !ok || got != misses {
					t.Fatalf("LRU ways %v at %d: organisation profilers %d misses (ok=%v), naive stack %d", ways, w, got, ok, misses)
				}
			}
		}

		// The FIFO oracle replays a cachesim.Bank per point per access, so an
		// input past fifoBudget bank accesses skips it.
		if specs := fuzzFIFO(fifoBytes); len(specs) > 0 && len(stream)*len(specs)*(len(specs[0].FIFOWays)+1) <= fifoBudget {
			orgs, err := trace.ProfileOrgs(l, specs)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("FIFO specs %+v", specs)
			checkOrgCurves(t, label, stream, warm, specs, orgs)
			checkVerdicts(t, label, stream, warm, specs)
		}
	})
}
