package obs

import (
	"sync"
	"time"
)

// Span is one timed stage of a run. Spans nest: Registry.StartSpan opens a
// root, Span.Start opens a child, and End stops the clock. The resulting
// tree — stage names with wall-clock durations — is exported by
// Registry.Snapshot and rendered by Snapshot.WriteSpanTree.
//
// A span's clock runs from Start to the first End; later Ends are ignored,
// so deferring End is always safe. Children may outlive their parent's End
// (each keeps its own clock). The nil Span is a no-op: Start returns nil,
// End does nothing — the shape instrumentation takes when its registry is
// nil.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	done     bool
	dur      time.Duration
	children []*Span
}

// Start opens a child stage under s.
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End stops the span's clock. Only the first End counts.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.done {
		s.done = true
		s.dur = time.Since(s.start)
	}
	s.mu.Unlock()
}

// node exports the span subtree as snapshot data. Open spans report their
// elapsed time so far; SelfNS is the duration not covered by children,
// clamped at zero (children may overlap or outlive the parent).
func (s *Span) node() SpanNode {
	s.mu.Lock()
	n := SpanNode{Name: s.name, DurNS: int64(s.dur), Open: !s.done}
	if n.Open {
		n.DurNS = int64(time.Since(s.start))
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	n.SelfNS = n.DurNS
	if len(children) > 0 {
		n.Children = make([]SpanNode, len(children))
		for i, c := range children {
			n.Children[i] = c.node()
			n.SelfNS -= n.Children[i].DurNS
		}
	}
	if n.SelfNS < 0 {
		n.SelfNS = 0
	}
	return n
}
