package sdf

import (
	"encoding/json"
	"errors"
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

// ReadJSON reads r to EOF and parses it as one graph in the CLI
// interchange format, through DecodeJSON, then validates it through the
// normal Build path. A member the format does not have, at any level, is
// an error rather than dropped: a misspelt "state" would otherwise build
// a zero-state module. So is anything but whitespace after the graph.
func ReadJSON(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sdf: parse graph json: %w", err)
	}
	s := jsonscan.New(data)
	b := DecodeJSON(s)
	if !s.End() {
		if err := ParseError(data); err != nil {
			return nil, err
		}
		return nil, errors.New("sdf: parse graph json: the one-pass decoder refused a graph encoding/json reads")
	}
	return b.Build()
}

// ParseError words why data is not one graph in the interchange format:
// encoding/json's error, prefixed "sdf: parse graph json: ", or nil when
// encoding/json reads data. It is the wording half of the decoder, for
// data DecodeJSON refused; nil then means DecodeJSON has a gap.
func ParseError(data []byte) error {
	if err := jsonscan.Explain(data, new(jsonGraph)); err != nil {
		return fmt.Errorf("sdf: parse graph json: %w", err)
	}
	return nil
}

// Member names of the interchange format, in jsonscan.Member's index
// order.
var (
	graphMembers = []string{"name", "nodes", "edges"}
	nodeMembers  = []string{"name", "state"}
	edgeMembers  = []string{"from", "to", "out", "in"}
)

// DecodeJSON reads the graph value at s's position in one pass (package
// jsonscan) and returns a Builder holding what encoding/json's decode of
// it into jsonGraph leads to — the name, every node, then every edge, in
// document order, with the faults AddNode and Connect would record — not
// yet built. Node and Edge have jsonNode's and jsonEdge's shape, so the
// decode goes straight into the Builder's slices. If s declines,
// encoding/json refuses the value too, and the result is nil.
func DecodeJSON(s *jsonscan.Scanner) *Builder {
	b := new(Builder)
	if !s.Null() { // a null graph leaves b empty
		for i := 0; s.Next('{', i); i++ {
			switch s.Member(graphMembers) {
			case 0:
				if !s.Null() {
					b.name = s.Text()
				}
			case 1:
				b.nodes = jsonscan.Array(s, b.nodes, decodeNode)
			case 2:
				b.edges = jsonscan.Array(s, b.edges, decodeEdge)
			}
		}
	}
	if !s.OK() {
		return nil
	}
	for _, n := range b.nodes {
		b.checkNode(n)
	}
	for _, e := range b.edges {
		b.checkEdge(e)
	}
	return b
}

func decodeNode(s *jsonscan.Scanner, n *Node) {
	for i := 0; s.Next('{', i); i++ {
		m := s.Member(nodeMembers)
		if s.Null() {
			continue
		}
		switch m {
		case 0:
			n.Name = s.Text()
		case 1:
			n.State = s.Int()
		}
	}
}

func decodeEdge(s *jsonscan.Scanner, e *Edge) {
	for i := 0; s.Next('{', i); i++ {
		m := s.Member(edgeMembers)
		if s.Null() {
			continue
		}
		switch m {
		case 0:
			e.From = NodeID(decodeInt(s))
		case 1:
			e.To = NodeID(decodeInt(s))
		case 2:
			e.Out = s.Int()
		case 3:
			e.In = s.Int()
		}
	}
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
