package kit

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// Rand is the generator's own splitmix64 stream, so the same seed gives
// the same inputs on every Go version and every commit.
type Rand struct{ s uint64 }

// NewRand seeds a stream.
func NewRand(seed uint64) *Rand { return &Rand{s: seed} }

// Uint64 returns the next value.
func (r *Rand) Uint64() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *Rand) Intn(n int) int { return int(r.Uint64() % uint64(n)) }

// Node, Edge and Graph mirror the SDF JSON interchange format the CLI and
// the daemon read ({name, nodes: [{name, state}], edges: [{from, to, out,
// in}]}). The benchmark writes it directly instead of going through
// cmd/graphgen, so inputs are identical across commits by construction.
type Node struct {
	Name  string `json:"name"`
	State int64  `json:"state"`
}

type Edge struct {
	From int   `json:"from"`
	To   int   `json:"to"`
	Out  int64 `json:"out"`
	In   int64 `json:"in"`
}

type Graph struct {
	Name  string `json:"name"`
	Nodes []Node `json:"nodes"`
	Edges []Edge `json:"edges"`
}

// SplitJoin generates an FM-radio-shaped homogeneous split-join: source
// -> lowpass -> demod -> split -> branches x (low -> high) -> sum ->
// sink. Every filter holds baseBlocks blocks of state; the seed then
// moves single blocks of state between filters, each staying within one
// block in ten of the base (at least one block). The total state and —
// the graph being homogeneous — the number of state block accesses per
// source firing are therefore the same for every seed: variants differ in
// where the working set sits, not in how much work an op is.
func SplitJoin(r *Rand, name string, branches int, baseBlocks, block int64) Graph {
	g := Graph{Name: name}
	add := func(name string, state int64) int {
		g.Nodes = append(g.Nodes, Node{Name: name, State: state})
		return len(g.Nodes) - 1
	}
	connect := func(from, to int) { g.Edges = append(g.Edges, Edge{From: from, To: to, Out: 1, In: 1}) }
	base := baseBlocks * block
	src := add("antenna", 0)
	lpf := add("lowpass", base)
	demod := add("demod", base/4+1)
	split := add("split", 1)
	sum := add("sum", int64(branches)+1)
	sink := add("speaker", 0)
	connect(src, lpf)
	connect(lpf, demod)
	connect(demod, split)
	filters := []int{lpf}
	for i := 0; i < branches; i++ {
		low := add(fmt.Sprintf("bpf%d-low", i), base)
		high := add(fmt.Sprintf("bpf%d-high", i), base)
		connect(split, low)
		connect(low, high)
		connect(high, sum)
		filters = append(filters, low, high)
	}
	connect(sum, sink)

	swing := max(baseBlocks/10, 1) * block
	for range 4 * len(filters) {
		from, to := filters[r.Intn(len(filters))], filters[r.Intn(len(filters))]
		if from == to || g.Nodes[from].State-block < base-swing || g.Nodes[to].State+block > base+swing {
			continue
		}
		g.Nodes[from].State -= block
		g.Nodes[to].State += block
	}
	return g
}

// MaxState returns the largest module state in words.
func (g Graph) MaxState() int64 {
	var m int64
	for _, n := range g.Nodes {
		m = max(m, n.State)
	}
	return m
}

// JSON renders the graph compactly.
func (g Graph) JSON() []byte {
	b, err := json.Marshal(g)
	if err != nil {
		panic(err) // plain structs of strings and integers cannot fail
	}
	return b
}

// Request is one daemon request: a plan request when Measure is zero, a
// profile request otherwise.
type Request struct {
	Graph     Graph
	M, B      int64
	Warm      int64
	Measure   int64
	Caps      []int64
	Scheduler string
}

// Path returns the endpoint the request is posted to.
func (q Request) Path() string {
	if q.Measure == 0 {
		return "/v1/plan"
	}
	return "/v1/profile"
}

// fields lists the request's JSON members in the documented order.
func (q Request) fields() [][2]string {
	fields := [][2]string{
		{"graph", string(q.Graph.JSON())},
		{"m", strconv.FormatInt(q.M, 10)},
		{"b", strconv.FormatInt(q.B, 10)},
		{"scheduler", strconv.Quote(q.Scheduler)},
	}
	if q.Measure != 0 {
		caps, _ := json.Marshal(q.Caps) // a slice of integers cannot fail
		fields = append(fields,
			[2]string{"warm", strconv.FormatInt(q.Warm, 10)},
			[2]string{"measure", strconv.FormatInt(q.Measure, 10)},
			[2]string{"caps", string(caps)})
	}
	return fields
}

func joinFields(buf *bytes.Buffer, fields [][2]string, sep string) {
	for i, f := range fields {
		if i > 0 {
			buf.WriteString(sep)
		}
		fmt.Fprintf(buf, "%q:%s", f[0], f[1])
	}
	buf.WriteByte('}')
}

// Body renders the request compactly, members in the documented order.
func (q Request) Body() []byte {
	var buf bytes.Buffer
	buf.WriteByte('{')
	joinFields(&buf, q.fields(), ",")
	return buf.Bytes()
}

// Variants produces byte strings that differ from Body and from each
// other but that the daemon canonicalises to the same key: the members
// are rotated and spaced, and the variant number is spelled in spaces and
// tabs after the opening brace.
type Variants struct{ tails [][]byte }

// Variants prepares the request's rotations once, so that making one
// variant costs a copy, not a JSON encoding.
func (q Request) Variants() Variants {
	fields := q.fields()
	var v Variants
	for rot := range fields {
		var buf bytes.Buffer
		joinFields(&buf, append(fields[rot:len(fields):len(fields)], fields[:rot]...), ", ")
		v.tails = append(v.tails, buf.Bytes())
	}
	return v
}

// Body returns variant n (n >= 1).
func (v Variants) Body(n uint32) []byte {
	tail := v.tails[int(n)%len(v.tails)]
	body := append(make([]byte, 0, len(tail)+34), '{')
	for ; n != 0; n >>= 1 {
		body = append(body, " \t"[n&1])
	}
	return append(body, tail...)
}
