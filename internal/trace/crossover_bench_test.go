package trace_test

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"streamsched/internal/cachesim"
	"streamsched/internal/exec"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// BenchmarkBoundedFamilies is the crossover table behind markerWays: the
// two request-bounded LRU families — flat move-to-front rows and marker
// lists — over one set, at deepest way counts 2…1024 with K ∈ {1, 2, 4}
// listed way counts (the deepest halved K-1 times, the shape of a
// capacity grid), on three L2 reference streams: the miss streams of a
// 16-line and a 64-line fully-associative L1 in front of a recorded
// schedule (the benchmark graph's shape, partitioned at M=512, B=16), and
// of a 16-line one in front of BenchmarkProfileHier's half-random stream.
// Each sub-benchmark reports ns per access.
func BenchmarkBoundedFamilies(b *testing.B) {
	streams, _, err := crossoverStreams()
	if err != nil {
		b.Fatal(err)
	}
	for _, st := range streams {
		for bound := int64(2); bound <= 1024; bound *= 2 {
			for _, k := range []int{1, 2, 4} {
				if bound>>(k-1) < 1 {
					continue
				}
				var ways []int64
				for i := k - 1; i >= 0; i-- {
					ways = append(ways, bound>>i)
				}
				for _, markers := range []bool{false, true} {
					kind := "rows"
					if markers {
						kind = "markers"
					}
					b.Run(fmt.Sprintf("%s/bound=%d/K=%d/%s", st.name, bound, k, kind), func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							touch := trace.BoundedTouch(markers, ways)
							for _, s := range st.slots {
								crossoverSink += touch(s)
							}
						}
						b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(st.slots)), "ns/access")
					})
				}
			}
		}
	}
}

var crossoverSink int

// BenchmarkOrgProfilersTouch times the two organisation drivers on the
// benchmark workloads' grids. OrgProfilers.Touch runs orgs-grid's LRU+FIFO
// grid (capacities 256…4k words × 1, 2, 4, 8 ways and fully associative)
// fed the recorded stream itself, and that grid's LRU half alone, so that
// the difference between the two is the FIFO bank's share; the orgs-grid
// case also reports FIFO replica insertions (misses of more than one way)
// per access. OrgLanes.Touch runs the L2 grid of hier-shared's hier verb
// (capacities 2k…16k words × 4, 8 ways and fully associative at B=16: five
// row families and one marker family) as the hierarchy pass does: one lane
// per L1 point — a 16-line and a 64-line fully-associative L1 — fed the
// recorded stream with the mask of the points that missed. Each op feeds
// the whole stream, to profilers built before the timer starts, so the
// first op starts cold and the rest replay the stream on warm stacks;
// each sub-benchmark reports ns per access (per lane access for lanes).
func BenchmarkOrgProfilersTouch(b *testing.B) {
	_, recorded, err := crossoverStreams()
	if err != nil {
		b.Fatal(err)
	}
	l2grid, _, err := trace.GridSpecs([]int64{2048, 4096, 8192, 16384}, 16, []int64{4, 8, 0}, false)
	if err != nil {
		b.Fatal(err)
	}
	orgsCaps, orgsWays := []int64{256, 512, 1024, 2048, 4096}, []int64{1, 2, 4, 8, 0}
	orgsGrid, _, err := trace.GridSpecs(orgsCaps, 16, orgsWays, true)
	if err != nil {
		b.Fatal(err)
	}
	orgsLRU, _, err := trace.GridSpecs(orgsCaps, 16, orgsWays, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		specs []trace.OrgSpec
	}{{"orgs-grid/recorded", orgsGrid}, {"orgs-grid-lru/recorded", orgsLRU}} {
		b.Run(c.name, func(b *testing.B) {
			p, err := trace.NewOrgProfilers(c.specs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, blk := range recorded {
					p.Touch(blk)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(recorded)), "ns/access")
			var inserts int64
			for _, oc := range p.Curves() {
				for _, w := range slices.Compact(slices.Sorted(slices.Values(oc.Spec.FIFOWays))) {
					if n, ok := oc.Misses(w, true); ok && w > 1 {
						inserts += n
					}
				}
			}
			if inserts > 0 {
				b.ReportMetric(float64(inserts)/float64(b.N*len(recorded)), "inserts/access")
			}
		})
	}
	blocks, masks, err := l1MissMasks(recorded, []int64{16, 64})
	if err != nil {
		b.Fatal(err)
	}
	laneAccesses := 0
	for _, m := range masks {
		laneAccesses += bits.OnesCount64(m)
	}
	b.Run("hier-l2/lanes-l1fa16+l1fa64", func(b *testing.B) {
		l, err := trace.NewOrgLanes(l2grid, 2)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j, blk := range blocks {
				l.Touch(blk, masks[j])
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*laneAccesses), "ns/access")
	})
}

// BenchmarkFIFOBank times the FIFO bank alone: orgs-grid's 20 FIFO
// replicas (capacities 256…4k words × 2, 4, 8 ways and fully associative
// at B=16) fed the recorded stream, with no LRU family beside them. Each op
// replays the whole stream into one bank built before the timer starts, so
// the first op starts cold and the rest replay on warm replicas. It reports
// ns per access and ns per replica insertion (a miss in a replica), the
// kernel's unit of work.
func BenchmarkFIFOBank(b *testing.B) {
	_, recorded, err := crossoverStreams()
	if err != nil {
		b.Fatal(err)
	}
	specs, _, err := trace.GridSpecs([]int64{256, 512, 1024, 2048, 4096}, 16, []int64{1, 2, 4, 8, 0}, true)
	if err != nil {
		b.Fatal(err)
	}
	replay, inserts := trace.FIFOBankReplay(specs, recorded)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replay()
	}
	ns := float64(b.Elapsed().Nanoseconds())
	b.ReportMetric(ns/float64(b.N*len(recorded)), "ns/access")
	b.ReportMetric(ns/float64(inserts()), "ns/insert")
}

// l1MissMasks feeds blocks to one fully-associative LRU L1 per entry of
// lines and keeps each access that missed at any of them, with the mask of
// the L1s it missed at (bit i: lines[i]): the reference stream of the L2
// lanes behind them.
func l1MissMasks(blocks, lines []int64) ([]int64, []uint64, error) {
	p, err := trace.NewOrgProfilers([]trace.OrgSpec{{Sets: 1, LRUWays: lines}})
	if err != nil {
		return nil, nil, err
	}
	pts := make([]trace.OrgPoint, len(lines))
	for i, n := range lines {
		pts[i], _ = p.Point(0, n, false)
	}
	var missed []int64
	var masks []uint64
	for _, blk := range blocks {
		p.Touch(blk)
		var mask uint64
		for i, pt := range pts {
			if p.Missed(pt) {
				mask |= 1 << i
			}
		}
		if mask != 0 {
			missed, masks = append(missed, blk), append(masks, mask)
		}
	}
	return missed, masks, nil
}

type crossoverStream struct {
	name  string
	slots []int32 // dense block ids, which are their own bank slots
}

// crossoverStreams returns the three L2 reference streams and the recorded
// schedule's stream they are derived from.
func crossoverStreams() ([]crossoverStream, []int64, error) {
	g, err := splitJoinGraph()
	if err != nil {
		return nil, nil, err
	}
	l := trace.NewLog()
	_, _, err = schedule.Window{
		Span:     "crossover",
		Cache:    cachesim.Config{Block: 16},
		Recorder: l,
		Mark:     func(*exec.Machine) { l.MarkWindow() },
	}.Measure(g, schedule.Partitioned(g, nil), schedule.Env{M: 512, B: 16}, 512, 512)
	if err != nil {
		return nil, nil, err
	}
	var recorded []int64
	if err := l.ForEach(func(blk int64) { recorded = append(recorded, blk) }); err != nil {
		return nil, nil, err
	}
	var out []crossoverStream
	for _, s := range []struct {
		name   string
		blocks []int64
		lines  int64
	}{
		{"recorded-l1fa16", recorded, 16},
		{"recorded-l1fa64", recorded, 64},
		{"halfrandom-l1fa16", halfRandomStream(rand.New(rand.NewSource(99)), 400000, 512), 16},
	} {
		misses, err := l1Misses(s.blocks, s.lines)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, crossoverStream{s.name, misses})
	}
	return out, recorded, nil
}

// splitJoinGraph is the benchmark workload's graph shape: a source, a
// 12-block low-pass filter and a demodulator ahead of an 8-way split into
// two 12-block filters each, joined by a sum into the sink.
func splitJoinGraph() (*sdf.Graph, error) {
	const filter = 12 * 16
	b := sdf.NewBuilder("splitjoin-8x12")
	src := b.AddNode("antenna", 0)
	lpf := b.AddNode("lowpass", filter)
	demod := b.AddNode("demod", filter/4+1)
	split := b.AddNode("split", 1)
	sum := b.AddNode("sum", 9)
	sink := b.AddNode("speaker", 0)
	b.Chain(src, lpf, demod, split)
	for i := 0; i < 8; i++ {
		b.Chain(split, b.AddNode(fmt.Sprintf("bpf%d-low", i), filter), b.AddNode(fmt.Sprintf("bpf%d-high", i), filter), sum)
	}
	b.Connect(sum, sink, 1, 1)
	return b.Build()
}

// l1Misses is the miss stream of a fully-associative LRU cache of the
// given lines: the reference stream of the L2 behind it.
func l1Misses(blocks []int64, lines int64) ([]int32, error) {
	missed, _, err := l1MissMasks(blocks, []int64{lines})
	out := make([]int32, len(missed))
	for i, blk := range missed {
		out[i] = int32(blk)
	}
	return out, err
}

// halfRandomStream is BenchmarkProfileHier's stream: sequential runs, a
// hot set, and random revisits over nblocks blocks.
func halfRandomStream(rng *rand.Rand, n int, nblocks int64) []int64 {
	out := make([]int64, 0, n)
	cur := int64(0)
	for len(out) < n {
		switch rng.Intn(4) {
		case 0:
			for r := 0; r < 8 && len(out) < n; r++ {
				out = append(out, cur)
				cur = (cur + 1) % nblocks
			}
		case 1:
			out = append(out, rng.Int63n(8))
		case 2:
			cur = rng.Int63n(nblocks)
			out = append(out, cur)
		default:
			out = append(out, rng.Int63n(nblocks))
		}
	}
	return out
}
