// Package obshttp serves an obs.Registry over HTTP. It is the one
// observability package that links net/http; only the daemon's mux and
// the experiment harness's -listen (through obs.SessionConfig.Serve) use it.
package obshttp

import (
	"fmt"
	"net"
	"net/http"
	httppprof "net/http/pprof"

	"streamsched/internal/obs"
)

// Server is the live introspection endpoint: a plain HTTP server over a
// registry, started by Serve (through obs.SessionConfig.Serve, for the
// experiment harness's -listen) and stopped by Close. While a sweep runs,
// /metrics can be scraped by Prometheus and /spans curl-watched; the pprof
// endpoints make a long run debuggable without restarting it with
// -cpuprofile.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Handler returns the introspection mux over reg:
//
//	/             endpoint index
//	/metrics      Prometheus text exposition format
//	/metrics.json the registry Snapshot as JSON (the -metrics format)
//	/spans        the live span tree, rendered as indented text
//	/debug/pprof/ net/http/pprof (profile, heap, trace, ...)
//
// Every request takes a fresh snapshot, so a scrape mid-run sees the
// counters and histograms as they stand, not the teardown state. A nil
// registry serves empty snapshots.
func Handler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "streamsched observability\n\n"+
			"/metrics       Prometheus text exposition\n"+
			"/metrics.json  registry snapshot (JSON)\n"+
			"/spans         live span tree\n"+
			"/debug/pprof/  pprof profiles\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.Snapshot().WriteJSON(w)
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		reg.Snapshot().WriteSpanTree(w)
	})
	mux.HandleFunc("/debug/pprof/", httppprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", httppprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", httppprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", httppprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", httppprof.Trace)
	return mux
}

// Serve starts the introspection server on addr (e.g. ":9190" or
// "127.0.0.1:0") over reg and returns once the listener is bound, so a
// caller that starts a sweep next is already scrapeable. The server runs
// until Close.
func Serve(addr string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: Handler(reg)}
	go srv.Serve(ln) //nolint:errcheck // always returns ErrServerClosed-ish after Close
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the server's bound address ("127.0.0.1:9190"), useful
// when Serve was given port 0. Empty on a nil Server.
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close shuts the server down (listener and open connections). Nil-safe
// and idempotent.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	srv := s.srv
	s.srv = nil
	return srv.Close()
}
