package trace_test

import (
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

// FuzzProfilerRuns checks the run paths end to end on arbitrary run
// streams: a log recorded with RecordRun replays the stream it was given,
// and profiling it run by run (Profile: ForEachRunWindowed into
// Profiler.TouchRun) gives the curve that block-by-block Touch calls give,
// which is the curve of a naive move-to-front stack — at every capacity.
// The seed corpus is testdata/fuzz/FuzzProfilerRuns.
func FuzzProfilerRuns(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
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
		runFed, err := trace.Profile(l)
		if err != nil {
			t.Fatal(err)
		}

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
	})
}
