package kit

import "sort"

// Span is one timed interval of a traced run. Parent is the index of the
// causing span in the same slice, or -1 for a root; spans of one op share
// OpID.
type Span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	OpID    int    `json:"op_id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// SelfTimes returns, per span, its duration minus the part of that
// interval its direct children cover (overlapping children are counted
// once).
func SelfTimes(spans []Span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].StartNS < spans[ks[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range ks {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// LayerSelf sums span self times by layer, in nanoseconds.
func LayerSelf(spans []Span) map[string]int64 {
	out := map[string]int64{}
	for i, t := range SelfTimes(spans) {
		out[spans[i].Layer] += t
	}
	return out
}
