package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"

	"streamsched/internal/jsonscan"
	"streamsched/internal/plancache"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
)

// Request/response wire types for the daemon's JSON API. SERVICE.md is
// the operator-facing reference; the structures here are the source of
// truth. Responses are marshalled once with encoding/json over fixed
// structs, so a given computation always serialises to the same bytes —
// which is what lets the cache store response bodies verbatim and the
// tests require byte-identity between cached and freshly computed
// results.

// Defaults applied to omitted request fields. Defaulting happens before
// the cache key is computed, so an explicit default and an omitted field
// address the same cache entry.
const (
	DefaultBlock     = 16
	DefaultScheduler = "partitioned"
	DefaultScale     = 4
	DefaultWarm      = 1024
	DefaultMeasure   = 4096
)

// maxGraphNodes bounds accepted graph sizes; a request is rejected, not
// truncated, above it.
const maxGraphNodes = 100000

// PlanRequest asks the daemon to plan a graph: choose buffer capacities
// and a firing policy for the requested scheduler under Env{M, B}.
type PlanRequest struct {
	// Graph is an SDF graph in the CLI interchange format
	// ({name, nodes: [{name, state}], edges: [{from, to, out, in}]}).
	Graph json.RawMessage `json:"graph"`
	// M is the design cache capacity in words (required, positive).
	M int64 `json:"m"`
	// B is the cache block size in words (default 16).
	B int64 `json:"b"`
	// Scheduler names the planning algorithm: flat, scaled, demand,
	// kohli, or partitioned (default partitioned).
	Scheduler string `json:"scheduler"`
	// Scale is the scaling factor for the scaled scheduler (default 4;
	// ignored by the others but always part of the cache key).
	Scale int64 `json:"scale"`

	// graph is Graph as decodeRequest read it, not yet built; nil when
	// Graph is not a graph in the interchange format (normalize words why).
	graph *sdf.Builder
	// sched is Scheduler resolved against the graph (schedule.ByName);
	// normalize sets it.
	sched schedule.Scheduler
}

// ProfileRequest asks for a full miss-curve profile of one planned
// schedule: the daemon executes warm source firings, records the next
// measure firings, reuse-distance profiles the trace, and evaluates the
// curve at the requested capacities.
type ProfileRequest struct {
	PlanRequest
	// Warm is the number of warmup source firings (default 1024).
	Warm int64 `json:"warm"`
	// Measure is the measured window in source firings (default 4096).
	Measure int64 `json:"measure"`
	// Caps lists the cache capacities (words) to evaluate the curve at.
	// Capacities are block-aligned (rounded down), deduplicated, and
	// sorted ascending before keying and evaluation. Empty means the
	// default grid: powers of two in whole blocks from one block to just
	// past the trace's working set.
	Caps []int64 `json:"caps"`
}

// PlanResponse is the body served for a plan request. Cached verbatim.
type PlanResponse struct {
	Engine      string  `json:"engine"`
	Key         string  `json:"key"`
	Graph       string  `json:"graph"`
	Nodes       int     `json:"nodes"`
	Edges       int     `json:"edges"`
	Scheduler   string  `json:"scheduler"` // resolved name, e.g. "partitioned-pipeline"
	M           int64   `json:"m"`
	B           int64   `json:"b"`
	Caps        []int64 `json:"caps"` // per-channel buffer capacities, words
	CrossEdges  []int64 `json:"cross_edges"`
	BufferWords int64   `json:"buffer_words"`
}

// CurvePoint is one evaluated capacity of a profile response.
type CurvePoint struct {
	Capacity      int64   `json:"capacity"`
	Misses        int64   `json:"misses"`
	MissesPerItem float64 `json:"misses_per_item"`
}

// ProfileResponse is the body served for a profile request. Cached
// verbatim.
type ProfileResponse struct {
	Engine          string       `json:"engine"`
	Key             string       `json:"key"`
	Graph           string       `json:"graph"`
	Scheduler       string       `json:"scheduler"`
	M               int64        `json:"m"`
	B               int64        `json:"b"`
	Warm            int64        `json:"warm"`
	Measure         int64        `json:"measure"`
	SourceFired     int64        `json:"source_fired"`
	InputItems      int64        `json:"input_items"`
	Accesses        int64        `json:"accesses"`
	WorkingSetLines int64        `json:"working_set_lines"`
	BufferWords     int64        `json:"buffer_words"`
	Points          []CurvePoint `json:"points"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Stable error codes (SERVICE.md documents the full table).
const (
	CodeBadRequest    = "bad_request"
	CodeTooLarge      = "too_large"
	CodeNotFound      = "not_found"
	CodeMethod        = "method_not_allowed"
	CodeTimeout       = "timeout"
	CodeBusy          = "busy"
	CodeUnprocessable = "unprocessable"
	CodeInternal      = "internal"
)

// Member names of the request bodies, in jsonscan.Member's index order: a
// plan request takes the first five, a profile request all eight.
var requestMembers = []string{"graph", "m", "b", "scheduler", "scale", "warm", "measure", "caps"}

// decodeRequest decodes a request body in one pass (package jsonscan),
// handing the graph value to sdf.DecodeJSON, and reports whether
// encoding/json, reading the body into the request type, would accept it;
// when it would, r holds what encoding/json would read. profile is r's
// profile request, or nil on the plan endpoint, whose body may not name
// warm, measure or caps. The graph member is raw JSON to encoding/json, so
// a value there that is not a graph still decodes: r.graph stays nil and
// normalize words the fault.
func decodeRequest(body []byte, r *PlanRequest, profile *ProfileRequest) bool {
	members := requestMembers
	if profile == nil {
		members = members[:5]
	}
	s := jsonscan.New(body)
	if s.Null() { // encoding/json reads null as the empty request
		return s.End()
	}
	for i := 0; s.Next('{', i); i++ {
		switch m := s.Member(members); {
		case m == 0:
			s.Space()
			start, saved := s.Pos(), *s
			if r.graph = sdf.DecodeJSON(s); !s.OK() {
				*s = saved
				s.Skip()
			}
			r.Graph = body[start:s.Pos()]
		case m == 7:
			profile.Caps = jsonscan.Array(s, profile.Caps, func(s *jsonscan.Scanner, c *int64) { *c = s.Int() })
		case s.Null(): // leaves a scalar as it was
		case m == 1:
			r.M = s.Int()
		case m == 2:
			r.B = s.Int()
		case m == 3:
			r.Scheduler = s.Text()
		case m == 4:
			r.Scale = s.Int()
		case m == 5:
			profile.Warm = s.Int()
		case m == 6:
			profile.Measure = s.Int()
		}
	}
	return s.End()
}

// errDecoderGap answers a body that decodeRequest refused and
// encoding/json reads, or a graph that sdf.DecodeJSON refused and
// encoding/json reads: a gap in the one-pass decoder, which is the
// daemon's fault (500), and never a reason to read the body a second way.
var errDecoderGap = errors.New("the one-pass request decoder refused a body encoding/json reads")

// parsePlan decodes, defaults and validates a plan request body.
func parsePlan(body []byte) (*PlanRequest, *sdf.Graph, error) {
	req := new(PlanRequest)
	if !decodeRequest(body, req, nil) {
		return nil, nil, declined(body, new(PlanRequest))
	}
	g, err := req.normalize()
	return req, g, err
}

// parseProfile decodes, defaults and validates a profile request body.
func parseProfile(body []byte) (*ProfileRequest, *sdf.Graph, error) {
	req := new(ProfileRequest)
	if !decodeRequest(body, &req.PlanRequest, req) {
		return nil, nil, declined(body, new(ProfileRequest))
	}
	g, err := req.normalize()
	return req, g, err
}

// declined words the error in a body decodeRequest refused: encoding/json's
// error decoding it into v, a new request of the endpoint's type.
func declined(body []byte, v any) error {
	if err := unmarshalStrict(body, v); err != nil {
		return err
	}
	return errDecoderGap
}

// unmarshalStrict decodes one JSON value rejecting unknown fields, so a
// client typo (e.g. "blocksize") fails loudly instead of silently hashing
// to the default, and rejecting anything but whitespace after the value.
// It words the errors decodeRequest only detects.
func unmarshalStrict(data []byte, v any) error {
	if err := jsonscan.Explain(data, v); err != nil {
		return fmt.Errorf("bad request json: %v", err)
	}
	return nil
}

// normalize applies defaults and validates; returns the parsed graph.
func (r *PlanRequest) normalize() (*sdf.Graph, error) {
	if len(r.Graph) == 0 {
		return nil, errors.New("missing graph")
	}
	if r.graph == nil {
		if err := sdf.ParseError(r.Graph); err != nil {
			return nil, fmt.Errorf("bad graph: %v", err)
		}
		return nil, errDecoderGap
	}
	g, err := r.graph.Build()
	if err != nil {
		return nil, fmt.Errorf("bad graph: %v", err)
	}
	if g.NumNodes() > maxGraphNodes {
		return nil, fmt.Errorf("graph has %d nodes, limit %d", g.NumNodes(), maxGraphNodes)
	}
	if r.B == 0 {
		r.B = DefaultBlock
	}
	if r.Scheduler == "" {
		r.Scheduler = DefaultScheduler
	}
	if r.Scale == 0 {
		r.Scale = DefaultScale
	}
	if r.M <= 0 {
		return nil, fmt.Errorf("m must be positive, got %d", r.M)
	}
	if r.B <= 0 {
		return nil, fmt.Errorf("b must be positive, got %d", r.B)
	}
	if r.Scale <= 0 {
		return nil, fmt.Errorf("scale must be positive, got %d", r.Scale)
	}
	if r.sched, err = schedule.ByName(r.Scheduler, g, r.Scale); err != nil {
		return nil, fmt.Errorf("%v (want flat, scaled, demand, kohli, or partitioned)", err)
	}
	return g, nil
}

// normalize applies defaults and validates the profile-specific fields
// on top of the embedded plan normalisation.
func (r *ProfileRequest) normalize() (*sdf.Graph, error) {
	g, err := r.PlanRequest.normalize()
	if err != nil {
		return nil, err
	}
	if r.Warm == 0 {
		r.Warm = DefaultWarm
	}
	if r.Measure == 0 {
		r.Measure = DefaultMeasure
	}
	if r.Warm < 0 {
		return nil, fmt.Errorf("warm must be non-negative, got %d", r.Warm)
	}
	if r.Measure <= 0 {
		return nil, fmt.Errorf("measure must be positive, got %d", r.Measure)
	}
	// The window ends at warm + measure source firings (or a little later:
	// batch schedulers overshoot warm-up, which the engine re-checks);
	// refuse a sum that cannot fit rather than run, or cache, such a
	// request.
	if r.Measure > math.MaxInt64-r.Warm {
		return nil, fmt.Errorf("warm %d + measure %d overflows int64", r.Warm, r.Measure)
	}
	// Canonicalise the capacity grid: block-align down, dedupe, sort.
	if len(r.Caps) > 0 {
		aligned := make([]int64, 0, len(r.Caps))
		seen := make(map[int64]bool, len(r.Caps))
		for _, c := range r.Caps {
			if c < r.B {
				return nil, fmt.Errorf("capacity %d below block size %d", c, r.B)
			}
			c -= c % r.B
			if !seen[c] {
				seen[c] = true
				aligned = append(aligned, c)
			}
		}
		sort.Slice(aligned, func(i, j int) bool { return aligned[i] < aligned[j] })
		r.Caps = aligned
	}
	return g, nil
}

// digestGraph writes the graph's semantic content — not its JSON
// surface — into the digest: name, nodes in id order (name, state),
// edges in id order (endpoints and rates). Field order, whitespace, or
// any other wire-format variation in the request therefore cannot change
// the key.
func digestGraph(d *plancache.Digest, g *sdf.Graph) {
	d.Str("graph.name", g.Name())
	d.Int("graph.nodes", int64(g.NumNodes()))
	for v := 0; v < g.NumNodes(); v++ {
		n := g.Node(sdf.NodeID(v))
		d.Str("node.name", n.Name)
		d.Int("node.state", n.State)
	}
	d.Int("graph.edges", int64(g.NumEdges()))
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(sdf.EdgeID(e))
		d.Ints("edge", []int64{int64(ed.From), int64(ed.To), ed.Out, ed.In})
	}
}

// key computes the content address of a normalised plan request under an
// engine version.
func (r *PlanRequest) key(engine string, g *sdf.Graph) plancache.Key {
	d := plancache.NewDigest()
	d.Str("engine", engine)
	d.Str("kind", "plan")
	digestGraph(d, g)
	d.Int("m", r.M)
	d.Int("b", r.B)
	d.Str("scheduler", r.Scheduler)
	d.Int("scale", r.Scale)
	return d.Sum()
}

// key computes the content address of a normalised profile request.
func (r *ProfileRequest) key(engine string, g *sdf.Graph) plancache.Key {
	d := plancache.NewDigest()
	d.Str("engine", engine)
	d.Str("kind", "profile")
	digestGraph(d, g)
	d.Int("m", r.M)
	d.Int("b", r.B)
	d.Str("scheduler", r.Scheduler)
	d.Int("scale", r.Scale)
	d.Int("warm", r.Warm)
	d.Int("measure", r.Measure)
	d.Ints("caps", r.Caps)
	return d.Sum()
}
