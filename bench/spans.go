//go:build linux

package main

import (
	"time"

	"streamsched/bench/kit"
)

// spanRecorder keeps a traced run's spans in memory; they are written out
// once, when the run ends. A nil recorder records nothing, which is how
// an untraced run pays nothing for it.
type spanRecorder struct {
	epoch time.Time
	spans []kit.Span
	opID  int // stamped on every span begun until it changes
	op    int // the current op's root span, parent of the driver's spans
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now(), op: -1} }

// begin opens a span and returns its index.
func (r *spanRecorder) begin(name, layer string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, kit.Span{Name: name, Layer: layer, OpID: r.opID, Parent: parent,
		StartNS: time.Since(r.epoch).Nanoseconds()})
	return len(r.spans) - 1
}

// end closes a span.
func (r *spanRecorder) end(id int) {
	if r != nil && id >= 0 {
		r.spans[id].EndNS = time.Since(r.epoch).Nanoseconds()
	}
}

// child opens a span under the current op.
func (r *spanRecorder) child(name, layer string) int {
	if r == nil {
		return -1
	}
	return r.begin(name, layer, r.op)
}
