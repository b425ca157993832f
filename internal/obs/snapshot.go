package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"
)

// SpanNode is one exported span: a stage name, its wall-clock duration,
// the self time not covered by its children, and its child stages.
type SpanNode struct {
	Name     string     `json:"name"`
	DurNS    int64      `json:"dur_ns"`
	SelfNS   int64      `json:"self_ns,omitempty"`
	Open     bool       `json:"open,omitempty"`
	Children []SpanNode `json:"children,omitempty"`
}

// Snapshot is a registry's state at one instant, the serialisable form
// behind the -metrics flag, the /metrics.json endpoint, and the counter
// contract tests.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramStats `json:"histograms,omitempty"`
	Spans      []SpanNode                `json:"spans,omitempty"`
}

// Counter returns a counter's value, zero when absent.
func (s *Snapshot) Counter(name string) int64 { return s.Counters[name] }

// CounterDelta returns how much a counter grew since base (which may be
// nil, meaning zero). Snapshot-delta arithmetic is how a stage isolates
// its own contribution on a shared registry.
func (s *Snapshot) CounterDelta(base *Snapshot, name string) int64 {
	v := s.Counters[name]
	if base != nil {
		v -= base.Counters[name]
	}
	return v
}

// WriteJSON serialises the snapshot as indented JSON. Map keys serialise
// sorted, so output is deterministic for a given state.
func (s *Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteSpanTree renders the span forest as an indented human-readable
// summary — what the CLIs print under -v.
func (s *Snapshot) WriteSpanTree(w io.Writer) error {
	if len(s.Spans) == 0 {
		_, err := fmt.Fprintln(w, "obs: no spans recorded")
		return err
	}
	var b strings.Builder
	var walk func(indent int, n SpanNode)
	walk = func(indent int, n SpanNode) {
		fmt.Fprintf(&b, "%s%s  %s", strings.Repeat("  ", indent), n.Name,
			time.Duration(n.DurNS).Round(time.Microsecond))
		if len(n.Children) > 0 && n.SelfNS > 0 {
			fmt.Fprintf(&b, " (self %s)", time.Duration(n.SelfNS).Round(time.Microsecond))
		}
		if n.Open {
			b.WriteString(" (open)")
		}
		b.WriteByte('\n')
		for _, c := range n.Children {
			walk(indent+1, c)
		}
	}
	for _, n := range s.Spans {
		walk(0, n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
