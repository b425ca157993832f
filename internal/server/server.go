// Package server is the streamschedd daemon's core: a long-running
// HTTP/JSON service that accepts SDF graph specs, plans and profiles
// them through the existing schedule.Env machinery, and serves the
// results to many concurrent clients.
//
// Three mechanisms keep the hot path at cached-lookup speed and the cold
// path bounded:
//
//   - a content-addressed result cache (internal/plancache): response
//     bodies are cached verbatim under a SHA-256 of the canonicalised
//     request plus the engine version, so a cache hit is one lookup and
//     one write, and a cached body is byte-identical to a fresh
//     computation;
//   - single-flight coalescing: identical requests in flight at the same
//     time compute once — followers wait on the leader's result. The
//     leader computes detached from its client's context, so a client
//     that gives up still leaves a warm cache behind;
//   - a bounded worker pool: at most Config.Jobs computations run
//     concurrently (the rest queue on the pool semaphore), keeping a
//     burst of distinct cold requests from oversubscribing the CPUs.
//
// Separating pure planning/profiling (internal/schedule — stateless,
// deterministic) from process-lifetime state (this package + the cache)
// is the refactor the service boundary forces; handlers hold no mutable
// state beyond the cache and flight table.
//
// A raw-body memo accelerates the common hot case — clients resending a
// byte-identical request — by mapping SHA-256(endpoint ‖ body) straight
// to the canonical key, skipping JSON parsing and graph canonicalisation
// entirely on that path (counted by server.fastpath.hits). A body the
// memo misses is decoded in one pass (decodeRequest), which reads what
// encoding/json would read; encoding/json runs only on a refused body, to
// word the error.
//
// The daemon metric contract (see README and SERVICE.md) adds the
// server.* family to plancache's cache.*: server.requests,
// server.errors, server.computations, server.singleflight.shared,
// server.timeouts, server.fastpath.hits counters, the server.inflight
// gauge, and the server.request.duration / server.compute.duration
// histograms (so /metrics carries their counts, totals and p50/p90/p99).
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamsched/internal/obs"
	"streamsched/internal/obs/obshttp"
	"streamsched/internal/plancache"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/internal/trace"
)

// EngineVersion names the planning/profiling engine semantics baked into
// this build. It participates in every cache key, so bump it whenever a
// scheduler, the execution machine, or the profiling engine changes
// observable output. The cache lives in memory only: a new engine starts
// with an empty one.
const EngineVersion = "streamsched-engine/1"

// Config configures a Server.
type Config struct {
	// CacheBytes is the result cache's byte budget. 0 disables caching.
	CacheBytes int64
	// Jobs bounds concurrent computations (the worker pool), and
	// admitPerJob times Jobs the computations running or queued. 0
	// means one per CPU; negative is rejected by New.
	Jobs int
	// Timeout bounds how long a client waits for a computation (the
	// computation itself runs to completion and fills the cache).
	// Default 60s.
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies. Default 8 MiB.
	MaxBodyBytes int64
	// Metrics receives the server.* and cache.* metric families and is
	// served on the observability endpoints. Nil falls back to the
	// process default registry.
	Metrics *obs.Registry
}

// Server handles the daemon's HTTP API. Construct with New; the handler
// from Handler is safe for concurrent use.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	cache *plancache.Cache
	sem   chan struct{}

	mu      sync.Mutex
	flights map[plancache.Key]*flight

	// rawKeys memoises SHA-256(endpoint ‖ exact request bytes) → canonical
	// key, letting a byte-identical repeat of a request skip JSON parsing
	// and graph canonicalisation on the hit path. It is a lookaside only:
	// the canonical key remains the content address, and any body not in
	// the memo (including equivalent-but-differently-ordered JSON) takes
	// the full normalise-and-hash path to the same key.
	rawMu   sync.Mutex
	rawKeys map[rawKey]plancache.Key

	inflight atomic.Int64

	// budget is the most block accesses a profile request's window may
	// make (schedule.Env.Budget): workBudget, which FuzzServe lowers so
	// that every input it posts costs milliseconds.
	budget int64

	requests, errors, computations, shared, timeouts, fastpath *obs.Counter
	inflightG                                                  *obs.Gauge
	reqDur, compDur                                            *obs.Histogram
}

// workBudget is the ceiling on the block accesses one profile request's
// window may make (schedule.Env.Budget), warm-up included. 2^28 accesses
// are ~17 s of one core for a window that does not fold: recording and
// profiling a demand-driven fmradio window cost ~63 ns per access on a
// 2-vCPU KVM host. A request estimated past it is answered 422
// unprocessable before it runs.
const workBudget = 1 << 28

// admitPerJob bounds the computations the daemon holds at once, running
// on the -jobs pool or queued for it, to admitPerJob times -jobs. A
// request that would start one more is answered 429 busy; one that joins
// a computation already in flight adds no work and is never refused.
const admitPerJob = 4

// rawKey addresses the raw-body memo.
type rawKey [sha256.Size]byte

// rawMemoMax bounds the raw-body memo; on overflow the memo is flushed
// (entries are 64 bytes of hashes, so the bound is ~1 MiB of memory, and
// a flush only costs re-parses, never wrong answers).
const rawMemoMax = 16384

// flight is one in-progress computation; followers wait on done.
type flight struct {
	done chan struct{}
	body []byte // valid after done is closed, when err == nil
	err  error
}

// New builds a server.
func New(cfg Config) *Server {
	if cfg.Jobs <= 0 {
		cfg.Jobs = runtime.GOMAXPROCS(0)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	reg := obs.Or(cfg.Metrics)
	return &Server{
		cfg: cfg,
		reg: reg,
		cache: plancache.New(plancache.Config{
			Budget:  cfg.CacheBytes,
			Metrics: reg,
		}),
		sem:          make(chan struct{}, cfg.Jobs),
		flights:      make(map[plancache.Key]*flight),
		rawKeys:      make(map[rawKey]plancache.Key),
		budget:       workBudget,
		requests:     reg.Counter("server.requests"),
		errors:       reg.Counter("server.errors"),
		computations: reg.Counter("server.computations"),
		shared:       reg.Counter("server.singleflight.shared"),
		timeouts:     reg.Counter("server.timeouts"),
		fastpath:     reg.Counter("server.fastpath.hits"),
		inflightG:    reg.Gauge("server.inflight"),
		reqDur:       reg.Histogram("server.request.duration"),
		compDur:      reg.Histogram("server.compute.duration"),
	}
}

// Handler returns the daemon's mux:
//
//	POST /v1/plan      plan a graph (PlanRequest -> PlanResponse)
//	POST /v1/profile   record + profile a miss curve (ProfileRequest -> ProfileResponse)
//	GET  /v1/stats     cache and pool stats as JSON
//	GET  /healthz      liveness ("ok")
//	GET  /version      engine version JSON
//	GET  /metrics, /metrics.json, /spans, /debug/pprof/   internal/obs/obshttp exposition
//	GET  /             endpoint index
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	obsH := obshttp.Handler(s.reg)
	for _, p := range []string{"/metrics", "/metrics.json", "/spans", "/debug/pprof/"} {
		mux.Handle(p, obsH)
	}
	mux.HandleFunc("/v1/plan", func(w http.ResponseWriter, r *http.Request) {
		s.handleCompute(w, r, "plan", s.planBody)
	})
	mux.HandleFunc("/v1/profile", func(w http.ResponseWriter, r *http.Request) {
		s.handleCompute(w, r, "profile", s.profileBody)
	})
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/version", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"engine": EngineVersion})
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			s.writeError(w, http.StatusNotFound, CodeNotFound, "no such endpoint")
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "streamschedd — streaming-schedule planning service\n\n"+
			"POST /v1/plan      plan a graph\n"+
			"POST /v1/profile   miss-curve profile of a planned schedule\n"+
			"GET  /v1/stats     cache/pool stats\n"+
			"GET  /healthz      liveness\n"+
			"GET  /version      engine version\n"+
			"GET  /metrics      Prometheus text exposition\n"+
			"GET  /metrics.json registry snapshot\n"+
			"GET  /spans        live span tree\n"+
			"GET  /debug/pprof/ pprof profiles\n")
	})
	return mux
}

// parseAndKey decodes a request body into either request type, applying
// defaults, and returns the canonical key plus the closure that computes
// the response body. The closure captures only normalised values.
type bodyFunc func(body []byte) (plancache.Key, func() ([]byte, error), error)

// handleCompute is the shared request path: parse -> key -> cache ->
// single-flight compute -> respond. The X-Streamsched-Cache header
// reports hit/miss, X-Streamsched-Key the content address.
func (s *Server) handleCompute(w http.ResponseWriter, r *http.Request, kind string, parse bodyFunc) {
	defer s.reqDur.Start()()
	s.requests.Inc()
	s.inflightG.Set(s.inflight.Add(1))
	defer func() { s.inflightG.Set(s.inflight.Add(-1)) }()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, http.StatusMethodNotAllowed, CodeMethod, "use POST")
		return
	}
	body, err := readBody(r, s.cfg.MaxBodyBytes+1)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "read body: "+err.Error())
		return
	}
	if int64(len(body)) > s.cfg.MaxBodyBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge, CodeTooLarge,
			fmt.Sprintf("body exceeds %d bytes", s.cfg.MaxBodyBytes))
		return
	}
	// Fast path: a byte-identical repeat of an already-keyed body skips
	// parsing. Only a cache hit can be served from here — on a miss the
	// compute closure is needed, which requires the full parse.
	rk := hashRaw(kind, body)
	if key, ok := s.rawLookup(rk); ok {
		if cached, ok := s.cache.Get(key); ok {
			s.fastpath.Inc()
			s.writeResult(w, key, cached, true)
			return
		}
	}
	key, compute, err := parse(body)
	if errors.Is(err, errDecoderGap) {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, err.Error())
		return
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, err.Error())
		return
	}
	s.rawStore(rk, key)
	if cached, ok := s.cache.Get(key); ok {
		s.writeResult(w, key, cached, true)
		return
	}
	f, leader, err := s.flightFor(key)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, CodeBusy, err.Error())
		return
	}
	if f == nil {
		// flightFor re-checked the cache under the flight lock and hit:
		// the previous leader finished between our Get and the lock.
		cached, _ := s.cache.Get(key)
		s.writeResult(w, key, cached, true)
		return
	}
	if leader {
		go s.runFlight(key, f, compute)
	} else {
		s.shared.Inc()
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	select {
	case <-f.done:
		if errors.Is(f.err, sdf.ErrUnprocessable) {
			s.writeError(w, http.StatusUnprocessableEntity, CodeUnprocessable, f.err.Error())
			return
		}
		if f.err != nil {
			s.writeError(w, http.StatusInternalServerError, CodeInternal, f.err.Error())
			return
		}
		s.writeResult(w, key, f.body, false)
	case <-ctx.Done():
		s.timeouts.Inc()
		s.writeError(w, http.StatusGatewayTimeout, CodeTimeout,
			"computation still running; retry to pick up the cached result")
	}
}

// bodyHint caps the buffer readBody allocates from Content-Length, so a
// client that announces a huge body makes the daemon allocate only as
// much as it actually sends.
const bodyHint = 64 << 10

// readBody reads at most limit bytes of the request body into one buffer
// sized from Content-Length (up to bodyHint, and 512 bytes when the
// length is unknown); the buffer grows past that only as bytes arrive.
func readBody(r *http.Request, limit int64) ([]byte, error) {
	size := int64(512)
	if n := r.ContentLength; n >= 0 {
		size = min(n, bodyHint) + 1 // room to see EOF without growing
	}
	body := make([]byte, 0, max(0, min(size, limit))) // limit < 0 reads nothing
	rd := io.LimitReader(r.Body, limit)
	for {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, nil
		}
		if err != nil {
			return body, err
		}
	}
}

// hashRaw addresses a request body in the raw-body memo. The endpoint
// name is mixed in so the same bytes posted to /v1/plan and /v1/profile
// cannot alias.
func hashRaw(kind string, body []byte) rawKey {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(body)
	var k rawKey
	h.Sum(k[:0])
	return k
}

// rawLookup consults the raw-body memo.
func (s *Server) rawLookup(rk rawKey) (plancache.Key, bool) {
	s.rawMu.Lock()
	defer s.rawMu.Unlock()
	k, ok := s.rawKeys[rk]
	return k, ok
}

// rawStore memoises a successfully keyed body, flushing the memo at the
// size bound.
func (s *Server) rawStore(rk rawKey, key plancache.Key) {
	s.rawMu.Lock()
	defer s.rawMu.Unlock()
	if len(s.rawKeys) >= rawMemoMax {
		s.rawKeys = make(map[rawKey]plancache.Key)
	}
	s.rawKeys[rk] = key
}

// flightFor returns the in-flight computation for key, creating one
// (leader == true) if none exists. A nil flight means the cache was
// populated while we raced for the lock — the caller should re-read it.
// It refuses to create one past the admission bound: every flight in the
// map is admitted until its leader deletes it, so the map is the count.
func (s *Server) flightFor(key plancache.Key) (f *flight, leader bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.flights[key]; ok {
		return f, false, nil
	}
	// The previous leader deletes its flight only after Put, so a
	// missing flight with a populated cache means the result landed
	// between the caller's cache miss and this lock.
	if _, ok := s.cache.Get(key); ok {
		return nil, false, nil
	}
	if n := len(s.flights); n >= admitPerJob*s.cfg.Jobs {
		return nil, false, fmt.Errorf("%d computations admitted, the most -jobs %d allows; retry later", n, s.cfg.Jobs)
	}
	f = &flight{done: make(chan struct{})}
	s.flights[key] = f
	return f, true, nil
}

// runFlight executes one computation on the worker pool, publishes the
// result to the cache, and releases the flight, and with it its
// admission. It runs detached from any request context: the work always
// completes and warms the cache, even if every waiting client times out.
func (s *Server) runFlight(key plancache.Key, f *flight, compute func() ([]byte, error)) {
	s.sem <- struct{}{}
	func() {
		defer func() { <-s.sem }()
		defer s.compDur.Start()()
		s.computations.Inc()
		f.body, f.err = compute()
	}()
	if f.err == nil {
		// Put strictly before the flight is deleted: any request that
		// finds no flight under the lock is guaranteed a cache hit, which
		// is what makes "identical requests compute once" exact rather
		// than probabilistic.
		s.cache.Put(key, f.body)
	}
	close(f.done)
	s.mu.Lock()
	delete(s.flights, key)
	s.mu.Unlock()
}

// planBody parses and keys a plan request and returns its compute
// closure.
func (s *Server) planBody(body []byte) (plancache.Key, func() ([]byte, error), error) {
	req, g, err := parsePlan(body)
	if err != nil {
		return plancache.Key{}, nil, err
	}
	key := req.key(EngineVersion, g)
	return key, func() ([]byte, error) { return s.computePlan(req, g, key) }, nil
}

// profileBody parses and keys a profile request and returns its compute
// closure.
func (s *Server) profileBody(body []byte) (plancache.Key, func() ([]byte, error), error) {
	req, g, err := parseProfile(body)
	if err != nil {
		return plancache.Key{}, nil, err
	}
	key := req.key(EngineVersion, g)
	return key, func() ([]byte, error) { return s.computeProfile(req, g, key) }, nil
}

// computePlan runs the scheduler and serialises the response body.
func (s *Server) computePlan(req *PlanRequest, g *sdf.Graph, key plancache.Key) ([]byte, error) {
	sched := req.sched
	env := schedule.Env{M: req.M, B: req.B, Metrics: s.reg}
	plan, err := sched.Prepare(g, env)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %w", sched.Name(), err)
	}
	resp := &PlanResponse{
		Engine:     EngineVersion,
		Key:        key.String(),
		Graph:      g.Name(),
		Nodes:      g.NumNodes(),
		Edges:      g.NumEdges(),
		Scheduler:  sched.Name(),
		M:          req.M,
		B:          req.B,
		Caps:       plan.Caps,
		CrossEdges: make([]int64, 0, len(plan.CrossEdges)),
	}
	for _, c := range plan.Caps {
		resp.BufferWords += c
	}
	for _, e := range plan.CrossEdges {
		resp.CrossEdges = append(resp.CrossEdges, int64(e))
	}
	return marshalBody(resp)
}

// computeProfile records and profiles one schedule and serialises the
// response body.
func (s *Server) computeProfile(req *ProfileRequest, g *sdf.Graph, key plancache.Key) ([]byte, error) {
	sched := req.sched
	env := schedule.Env{M: req.M, B: req.B, Metrics: s.reg, Budget: s.budget}
	cr, err := schedule.MeasureCurve(g, sched, env, req.B, req.Warm, req.Measure)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", sched.Name(), err)
	}
	caps := req.Caps
	if len(caps) == 0 {
		caps = trace.DefaultCapacityGrid(req.B, cr.Curve.SaturationLines())
	}
	resp := &ProfileResponse{
		Engine:          EngineVersion,
		Key:             key.String(),
		Graph:           g.Name(),
		Scheduler:       cr.Scheduler,
		M:               req.M,
		B:               req.B,
		Warm:            req.Warm,
		Measure:         req.Measure,
		SourceFired:     cr.SourceFired,
		InputItems:      cr.InputItems,
		Accesses:        cr.Curve.Accesses,
		WorkingSetLines: cr.Curve.SaturationLines(),
		BufferWords:     cr.BufferWords,
		Points:          make([]CurvePoint, 0, len(caps)),
	}
	for _, c := range caps {
		resp.Points = append(resp.Points, CurvePoint{
			Capacity:      c,
			Misses:        cr.Curve.MissesAtCapacity(c, req.B),
			MissesPerItem: cr.MissesPerItem(c, req.B),
		})
	}
	return marshalBody(resp)
}

// handleStats serves cache/pool stats as JSON (not cached, not part of
// the stable metric contract — use /metrics for dashboards). It reads the
// counters it reports and nothing else of the registry.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := map[string]any{
		"engine":        EngineVersion,
		"cache_entries": s.cache.Len(),
		"cache_bytes":   s.cache.Bytes(),
		"cache_budget":  s.cache.Budget(),
		"jobs":          s.cfg.Jobs,
		"cache_hits":    s.reg.Counter("cache.hits").Value(),
		"cache_misses":  s.reg.Counter("cache.misses").Value(),
		"evictions":     s.reg.Counter("cache.evictions").Value(),
		"requests":      s.requests.Value(),
		"computations":  s.computations.Value(),
		"shared":        s.shared.Value(),
		"fastpath":      s.fastpath.Value(),
		"timeouts":      s.timeouts.Value(),
		"errors":        s.errors.Value(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(stats)
}

// writeResult serves a computed or cached body.
func (s *Server) writeResult(w http.ResponseWriter, key plancache.Key, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Streamsched-Key", key.String())
	if hit {
		w.Header().Set("X-Streamsched-Cache", "hit")
	} else {
		w.Header().Set("X-Streamsched-Cache", "miss")
	}
	w.Write(body)
}

// writeError serves the uniform error body and counts it.
func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.errors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(ErrorResponse{Error: msg, Code: code})
}

// marshalBody serialises a response struct to its canonical cached form:
// compact JSON plus a trailing newline.
func marshalBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
