package sdf

import (
	"encoding/json"
	"fmt"
	"io"

	"streamsched/internal/jsonscan"
)

// jsonGraph is the on-disk representation used by the CLI tools.
type jsonGraph struct {
	Name  string     `json:"name"`
	Nodes []jsonNode `json:"nodes"`
	Edges []jsonEdge `json:"edges"`
}

type jsonNode struct {
	Name  string `json:"name"`
	State int64  `json:"state"`
}

type jsonEdge struct {
	From int   `json:"from"`
	To   int   `json:"to"`
	Out  int64 `json:"out"`
	In   int64 `json:"in"`
}

// MarshalJSON encodes the graph in the CLI interchange format.
func (g *Graph) MarshalJSON() ([]byte, error) {
	jg := jsonGraph{Name: g.name}
	for _, n := range g.nodes {
		jg.Nodes = append(jg.Nodes, jsonNode{Name: n.Name, State: n.State})
	}
	for _, e := range g.edges {
		jg.Edges = append(jg.Edges, jsonEdge{From: int(e.From), To: int(e.To), Out: e.Out, In: e.In})
	}
	return json.MarshalIndent(jg, "", "  ")
}

// WriteJSON writes the graph to w in the CLI interchange format.
func (g *Graph) WriteJSON(w io.Writer) error {
	data, err := g.MarshalJSON()
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadJSON parses a graph from the CLI interchange format and validates it
// through the normal Build path. A member the format does not have, at any
// level, is an error rather than dropped: a misspelt "state" would
// otherwise build a zero-state module. ReadJSON reads one value and
// leaves the rest of r unread.
func ReadJSON(r io.Reader) (*Graph, error) {
	var jg jsonGraph
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jg); err != nil {
		return nil, fmt.Errorf("sdf: parse graph json: %w", err)
	}
	b := NewBuilder(jg.Name)
	jg.addTo(b)
	return b.Build()
}

// addTo makes the Builder calls a decoded graph stands for: every node,
// then every edge, in document order.
func (jg *jsonGraph) addTo(b *Builder) {
	for _, n := range jg.Nodes {
		b.AddNode(n.Name, n.State)
	}
	for _, e := range jg.Edges {
		b.Connect(NodeID(e.From), NodeID(e.To), e.Out, e.In)
	}
}

// Member names of the interchange format, in jsonscan.Member's index
// order.
var (
	graphMembers = []string{"name", "nodes", "edges"}
	nodeMembers  = []string{"name", "state"}
	edgeMembers  = []string{"from", "to", "out", "in"}
)

// DecodeJSON reads the graph value at s's position in one pass when it is
// spelled the common way (see package jsonscan): exact-case members, each
// at most once, and nothing encoding/json would ignore or convert — no
// null, no unknown member, no escape. It returns a Builder holding what
// encoding/json's decode of the same value would lead ReadJSON to add —
// every node, then every edge, in document order — not yet built. If s
// declines, the result is meaningless and the caller must decode the
// input with encoding/json instead.
func DecodeJSON(s *jsonscan.Scanner) *Builder {
	b := NewBuilder("")
	var edges []jsonEdge
	var seen uint64
	for i := 0; s.Next('{', i); i++ {
		switch s.Member(graphMembers, &seen) {
		case 0:
			b.name = s.Text()
		case 1:
			for j := 0; s.Next('[', j); j++ {
				n := decodeNode(s)
				b.AddNode(n.Name, n.State)
			}
		case 2:
			for j := 0; s.Next('[', j); j++ {
				e := decodeEdge(s)
				if seen&(1<<1) == 0 { // no nodes yet: connect after them
					edges = append(edges, e)
				} else {
					b.Connect(NodeID(e.From), NodeID(e.To), e.Out, e.In)
				}
			}
		}
	}
	if !s.OK() {
		return nil
	}
	for _, e := range edges {
		b.Connect(NodeID(e.From), NodeID(e.To), e.Out, e.In)
	}
	return b
}

func decodeNode(s *jsonscan.Scanner) jsonNode {
	var n jsonNode
	var seen uint64
	for i := 0; s.Next('{', i); i++ {
		switch s.Member(nodeMembers, &seen) {
		case 0:
			n.Name = s.Text()
		case 1:
			n.State = s.Int()
		}
	}
	return n
}

func decodeEdge(s *jsonscan.Scanner) jsonEdge {
	var e jsonEdge
	var seen uint64
	for i := 0; s.Next('{', i); i++ {
		switch s.Member(edgeMembers, &seen) {
		case 0:
			e.From = decodeInt(s)
		case 1:
			e.To = decodeInt(s)
		case 2:
			e.Out = s.Int()
		case 3:
			e.In = s.Int()
		}
	}
	return e
}

// decodeInt reads an int member, declining a value int cannot hold, as
// encoding/json refuses it.
func decodeInt(s *jsonscan.Scanner) int {
	v := s.Int()
	if int64(int(v)) != v {
		s.Decline()
	}
	return int(v)
}

// WriteDOT renders the graph in Graphviz DOT format. assign may be nil; if
// given (with k components) nodes are clustered by component so a partition
// can be inspected visually.
func (g *Graph) WriteDOT(w io.Writer, assign []int, k int) error {
	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	pr("digraph %q {\n  rankdir=LR;\n  node [shape=box];\n", g.name)
	if assign != nil && len(assign) == len(g.nodes) {
		byComp := make([][]NodeID, k)
		for v, c := range assign {
			if c >= 0 && c < k {
				byComp[c] = append(byComp[c], NodeID(v))
			}
		}
		for c, members := range byComp {
			pr("  subgraph cluster_%d {\n    label=\"component %d\";\n", c, c)
			for _, v := range members {
				pr("    n%d [label=\"%s\\ns=%d q=%d\"];\n", v, g.nodes[v].Name, g.nodes[v].State, g.reps[v])
			}
			pr("  }\n")
		}
	} else {
		for v, n := range g.nodes {
			pr("  n%d [label=\"%s\\ns=%d q=%d\"];\n", v, n.Name, n.State, g.reps[v])
		}
	}
	for _, e := range g.edges {
		if e.Out == 1 && e.In == 1 {
			pr("  n%d -> n%d;\n", e.From, e.To)
		} else {
			pr("  n%d -> n%d [label=\"%d:%d\"];\n", e.From, e.To, e.Out, e.In)
		}
	}
	pr("}\n")
	return err
}
