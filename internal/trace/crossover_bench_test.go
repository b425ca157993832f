package trace_test

import (
	"fmt"
	"math/rand"
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
	streams, err := crossoverStreams()
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

type crossoverStream struct {
	name  string
	slots []int32 // dense block ids, which are their own bank slots
}

func crossoverStreams() ([]crossoverStream, error) {
	g, err := splitJoinGraph()
	if err != nil {
		return nil, err
	}
	l := trace.NewLog()
	_, _, err = schedule.Window{
		Span:     "crossover",
		Cache:    cachesim.Config{Block: 16},
		Recorder: l,
		Mark:     func(*exec.Machine) { l.MarkWindow() },
	}.Measure(g, schedule.Partitioned(g, nil), schedule.Env{M: 512, B: 16}, 512, 512)
	if err != nil {
		return nil, err
	}
	var recorded []int64
	if err := l.ForEach(func(blk int64) { recorded = append(recorded, blk) }); err != nil {
		return nil, err
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
			return nil, err
		}
		out = append(out, crossoverStream{s.name, misses})
	}
	return out, nil
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
	p, err := trace.NewOrgProfilers([]trace.OrgSpec{{Sets: 1, LRUWays: []int64{lines}}})
	if err != nil {
		return nil, err
	}
	pt, _ := p.Point(0, lines, false)
	var out []int32
	for _, blk := range blocks {
		if p.Touch(blk); p.Missed(pt) {
			out = append(out, int32(blk))
		}
	}
	return out, nil
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
