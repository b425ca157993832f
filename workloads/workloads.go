// Package workloads provides parameterised SDF topologies of the streaming
// applications the paper's literature builds on (StreamIt benchmarks,
// GNU-Radio style flows): FM radio, filterbank, beamformer, FFT, bitonic
// sort, DES, and an MP3-style decoder. The paper's theorems depend only on
// topology, rates, and state sizes, so these synthetic graphs carry the
// structure of the real applications; state sizes are parameterised so
// experiments can scale working sets relative to the cache.
package workloads

import (
	"fmt"

	"streamsched/internal/sdf"
)

// FMRadio builds the classic FM radio pipeline with an equalizer
// split-join: source -> low-pass -> demodulator -> split -> bands band-pass
// filters -> sum -> sink. filterState is the per-filter state in words
// (tap coefficients plus delay line). The graph is homogeneous.
func FMRadio(bands int, filterState int64) (*sdf.Graph, error) {
	if bands < 1 {
		return nil, fmt.Errorf("workloads: FMRadio needs >= 1 band, got %d", bands)
	}
	if filterState < 1 {
		return nil, fmt.Errorf("workloads: filter state must be positive, got %d", filterState)
	}
	b := sdf.NewBuilder("fmradio")
	src := b.AddNode("antenna", 0)
	lpf := b.AddNode("lowpass", filterState)
	demod := b.AddNode("demod", filterState/4+1)
	split := b.AddNode("split", 1)
	sum := b.AddNode("sum", int64(bands)+1)
	sink := b.AddNode("speaker", 0)
	b.Connect(src, lpf, 1, 1)
	b.Connect(lpf, demod, 1, 1)
	b.Connect(demod, split, 1, 1)
	for i := 0; i < bands; i++ {
		low := b.AddNode(fmt.Sprintf("bpf%d-low", i), filterState)
		high := b.AddNode(fmt.Sprintf("bpf%d-high", i), filterState)
		b.Connect(split, low, 1, 1)
		b.Connect(low, high, 1, 1)
		b.Connect(high, sum, 1, 1)
	}
	b.Connect(sum, sink, 1, 1)
	return b.Build()
}

// Filterbank builds an analysis/synthesis filterbank with decimation: each
// of branches channels band-passes, downsamples by factor, processes,
// upsamples by factor, and rejoins. With factor > 1 the graph is
// inhomogeneous but rate matched (all branches share the factor).
// stageState is the state in words of every filter stage.
func Filterbank(branches int, factor, stageState int64) (*sdf.Graph, error) {
	if branches < 1 {
		return nil, fmt.Errorf("workloads: Filterbank needs >= 1 branch, got %d", branches)
	}
	if factor < 1 {
		return nil, fmt.Errorf("workloads: decimation factor must be >= 1, got %d", factor)
	}
	if stageState < 1 {
		return nil, fmt.Errorf("workloads: stage state must be positive, got %d", stageState)
	}
	b := sdf.NewBuilder("filterbank")
	src := b.AddNode("src", 0)
	split := b.AddNode("split", 1)
	join := b.AddNode("join", int64(branches)+1)
	sink := b.AddNode("sink", 0)
	b.Connect(src, split, 1, 1)
	for i := 0; i < branches; i++ {
		band := b.AddNode(fmt.Sprintf("band%d", i), stageState)
		down := b.AddNode(fmt.Sprintf("down%d", i), stageState/2+1)
		proc := b.AddNode(fmt.Sprintf("proc%d", i), stageState)
		up := b.AddNode(fmt.Sprintf("up%d", i), stageState/2+1)
		b.Connect(split, band, 1, 1)
		b.Connect(band, down, 1, factor) // decimator consumes factor per firing
		b.Connect(down, proc, 1, 1)
		b.Connect(proc, up, 1, 1)
		b.Connect(up, join, factor, 1) // expander produces factor per firing
	}
	b.Connect(join, sink, 1, 1)
	return b.Build()
}

// Beamformer builds a two-stage beamformer: channels front-end chains
// (matched filter + delay) feed a combining stage, which fans out to beams
// beam-forming chains (steer + detect) merged into the sink. Homogeneous.
// state is the per-stage state in words.
func Beamformer(channels, beams int, state int64) (*sdf.Graph, error) {
	if channels < 1 || beams < 1 {
		return nil, fmt.Errorf("workloads: Beamformer needs channels, beams >= 1, got %d, %d", channels, beams)
	}
	if state < 1 {
		return nil, fmt.Errorf("workloads: stage state must be positive, got %d", state)
	}
	b := sdf.NewBuilder("beamformer")
	src := b.AddNode("sensors", 0)
	split := b.AddNode("split", 1)
	combine := b.AddNode("combine", int64(channels)+1)
	bsplit := b.AddNode("beamsplit", 1)
	merge := b.AddNode("merge", int64(beams)+1)
	sink := b.AddNode("sink", 0)
	b.Connect(src, split, 1, 1)
	for i := 0; i < channels; i++ {
		mf := b.AddNode(fmt.Sprintf("ch%d-filter", i), state)
		delay := b.AddNode(fmt.Sprintf("ch%d-delay", i), state/2+1)
		b.Connect(split, mf, 1, 1)
		b.Connect(mf, delay, 1, 1)
		b.Connect(delay, combine, 1, 1)
	}
	b.Connect(combine, bsplit, 1, 1)
	for i := 0; i < beams; i++ {
		steer := b.AddNode(fmt.Sprintf("beam%d-steer", i), state)
		detect := b.AddNode(fmt.Sprintf("beam%d-detect", i), state/2+1)
		b.Connect(bsplit, steer, 1, 1)
		b.Connect(steer, detect, 1, 1)
		b.Connect(detect, merge, 1, 1)
	}
	b.Connect(merge, sink, 1, 1)
	return b.Build()
}

// FFT builds a streaming FFT pipeline: a reorder stage followed by stages
// butterfly stages, each consuming and producing frame items per firing
// (one frame per firing, gain 1) and holding stageState words of twiddle
// factors and workspace.
func FFT(stages int, frame, stageState int64) (*sdf.Graph, error) {
	if stages < 1 {
		return nil, fmt.Errorf("workloads: FFT needs >= 1 stage, got %d", stages)
	}
	if frame < 1 || stageState < 1 {
		return nil, fmt.Errorf("workloads: frame and state must be positive, got %d, %d", frame, stageState)
	}
	b := sdf.NewBuilder("fft")
	src := b.AddNode("src", 0)
	reorder := b.AddNode("bitrev", frame)
	prev := reorder
	b.Connect(src, reorder, 1, frame) // gather a frame
	for i := 0; i < stages; i++ {
		st := b.AddNode(fmt.Sprintf("butterfly%d", i), stageState)
		b.Connect(prev, st, frame, frame)
		prev = st
	}
	sink := b.AddNode("sink", 0)
	b.Connect(prev, sink, frame, 1)
	return b.Build()
}

// BitonicSort builds a bitonic sorting network as a layered dag: depth
// layers of width comparator-group modules, consecutive layers fully
// wired in a butterfly pattern (each group feeds two groups of the next
// layer). Homogeneous; state is per comparator-group words.
func BitonicSort(depth, width int, state int64) (*sdf.Graph, error) {
	if depth < 1 || width < 1 {
		return nil, fmt.Errorf("workloads: BitonicSort needs depth, width >= 1, got %d, %d", depth, width)
	}
	if state < 1 {
		return nil, fmt.Errorf("workloads: state must be positive, got %d", state)
	}
	b := sdf.NewBuilder("bitonic")
	src := b.AddNode("src", 0)
	prev := make([]sdf.NodeID, width)
	for w := range prev {
		prev[w] = b.AddNode(fmt.Sprintf("l0g%d", w), state)
		b.Connect(src, prev[w], 1, 1)
	}
	for l := 1; l < depth; l++ {
		cur := make([]sdf.NodeID, width)
		stride := 1 << uint((l-1)%maxButterflyBits(width))
		for w := range cur {
			cur[w] = b.AddNode(fmt.Sprintf("l%dg%d", l, w), state)
		}
		for w := range prev {
			b.Connect(prev[w], cur[w], 1, 1)
			if width > 1 {
				b.Connect(prev[w], cur[(w+stride)%width], 1, 1)
			}
		}
		prev = cur
	}
	sink := b.AddNode("sink", 0)
	for _, p := range prev {
		b.Connect(p, sink, 1, 1)
	}
	return b.Build()
}

func maxButterflyBits(width int) int {
	bits := 1
	for 1<<uint(bits) < width {
		bits++
	}
	return bits
}

// DES builds a DES-style encryption pipeline: initial permutation, rounds
// Feistel rounds (each holding S-box tables of sboxState words), and the
// final permutation. Homogeneous.
func DES(rounds int, sboxState int64) (*sdf.Graph, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("workloads: DES needs >= 1 round, got %d", rounds)
	}
	if sboxState < 1 {
		return nil, fmt.Errorf("workloads: sbox state must be positive, got %d", sboxState)
	}
	b := sdf.NewBuilder("des")
	src := b.AddNode("src", 0)
	ip := b.AddNode("initial-perm", sboxState/4+1)
	prev := ip
	b.Connect(src, ip, 1, 1)
	for i := 0; i < rounds; i++ {
		r := b.AddNode(fmt.Sprintf("round%d", i), sboxState)
		b.Connect(prev, r, 1, 1)
		prev = r
	}
	fp := b.AddNode("final-perm", sboxState/4+1)
	b.Connect(prev, fp, 1, 1)
	sink := b.AddNode("sink", 0)
	b.Connect(fp, sink, 1, 1)
	return b.Build()
}

// MP3Decoder builds an MP3-style decoding pipeline with realistic rate
// changes: frame parsing expands each frame token into spectral samples,
// IMDCT and synthesis stages transform at matched rates. tableWords sets
// the base table size; the stages hold 4x, 1x, 2x, and 4x that many words
// (512 reproduces realistic 2048-word Huffman/synthesis tables).
func MP3Decoder(tableWords int64) (*sdf.Graph, error) {
	if tableWords < 1 {
		return nil, fmt.Errorf("workloads: tableWords must be >= 1, got %d", tableWords)
	}
	b := sdf.NewBuilder("mp3")
	src := b.AddNode("bitstream", 0)
	huff := b.AddNode("huffman", 4*tableWords)
	dequant := b.AddNode("dequant", tableWords)
	imdct := b.AddNode("imdct", 2*tableWords)
	synth := b.AddNode("synthesis", 4*tableWords)
	sink := b.AddNode("pcm", 0)
	b.Connect(src, huff, 1, 1)      // one frame token per firing
	b.Connect(huff, dequant, 12, 1) // frame expands to 12 spectral items
	b.Connect(dequant, imdct, 1, 12)
	b.Connect(imdct, synth, 12, 3)
	b.Connect(synth, sink, 2, 1) // 4 firings x 2 = 8 PCM items per frame
	return b.Build()
}

// names lists the workloads ByName builds, in Suite's order.
var names = []string{"fmradio", "filterbank", "beamformer", "fft", "bitonic", "des", "mp3"}

// ByName builds the named workload at its standard shape with state
// scale scale: the graphs the CLI exports and the daemon's load test
// posts.
func ByName(name string, scale int64) (*sdf.Graph, error) {
	switch name {
	case "fmradio":
		return FMRadio(8, scale)
	case "filterbank":
		return Filterbank(6, 4, scale)
	case "beamformer":
		return Beamformer(6, 4, scale)
	case "fft":
		return FFT(8, 32, scale)
	case "bitonic":
		return BitonicSort(6, 4, scale)
	case "des":
		return DES(16, scale)
	case "mp3":
		return MP3Decoder(scale)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Suite returns the standard workload collection scaled so that module
// states are a meaningful fraction of cache size m, as used by the
// dag-workload experiments (E6). The MP3 decoder's largest table is then
// 4·(m/4) = m and its tables total ≈ 2.75m, so it does not fit in cache
// and the scheduling comparison is meaningful.
func Suite(m int64) ([]*sdf.Graph, error) {
	out := make([]*sdf.Graph, len(names))
	for i, name := range names {
		g, err := ByName(name, max(m/4, 4))
		if err != nil {
			return nil, err
		}
		out[i] = g
	}
	return out, nil
}
