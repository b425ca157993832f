package obs

import (
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// SessionConfig selects what a Session observes and where the artifacts
// land. Zero value: observe nothing.
type SessionConfig struct {
	// Metrics, when non-empty, writes a registry snapshot to this path at
	// Close — CSV when the path ends in .csv, indented JSON otherwise.
	Metrics string
	// CPUProfile/MemProfile, when non-empty, write pprof profiles (CPU
	// stopped and heap captured at Close).
	CPUProfile string
	MemProfile string
	// Trace, when non-empty, writes a runtime/trace execution trace.
	Trace string
	// Listen, when non-empty, serves live introspection over HTTP on this
	// address for the session's lifetime: /metrics (Prometheus text),
	// /metrics.json, /spans, and /debug/pprof. Arms a live registry like
	// Metrics does.
	Listen string
	// Verbose prints the span-tree summary to Log at Close.
	Verbose bool
	// Log is the verbose destination; nil means os.Stderr.
	Log io.Writer
}

// Session is the defer-based teardown helper both mains share: it turns
// the observability flags into one Start/Close pair so every exit path —
// including early error returns — flushes profiles and snapshots exactly
// once. StartSession installs a live registry as the process default when
// metrics or verbose output were requested; Close restores the previous
// default, stops profiling, and writes everything out.
type Session struct {
	cfg    SessionConfig
	reg    *Registry
	prev   *Registry
	swap   bool
	cpu    *os.File
	traceF *os.File
	srv    *Server
	closed bool
}

// StartSession begins observing per cfg. On error, anything already
// started is shut down; the returned session (possibly inert) is always
// safe to Close.
func (s *Session) start() error {
	c := s.cfg
	if c.Metrics != "" || c.Verbose || c.Listen != "" {
		s.reg = NewRegistry()
		s.prev = SetDefault(s.reg)
		s.swap = true
	}
	if c.Listen != "" {
		srv, err := Serve(c.Listen, s.reg)
		if err != nil {
			return err
		}
		s.srv = srv
		out := c.Log
		if out == nil {
			out = os.Stderr
		}
		fmt.Fprintf(out, "obs: serving introspection on http://%s (/metrics, /metrics.json, /spans, /debug/pprof)\n", srv.Addr())
	}
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("obs: cpu profile: %w", err)
		}
		s.cpu = f
	}
	if c.Trace != "" {
		f, err := os.Create(c.Trace)
		if err != nil {
			return fmt.Errorf("obs: runtime trace: %w", err)
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			return fmt.Errorf("obs: runtime trace: %w", err)
		}
		s.traceF = f
	}
	return nil
}

// StartSession starts observing per cfg. The returned Session must be
// Closed (typically deferred right after the call); Close is where files
// are flushed, so skipping it loses data. On a start error the partially
// started session is already cleaned up and a nil Session is returned —
// nil.Close() is a safe no-op, so `defer s.Close()` works unconditionally.
func StartSession(cfg SessionConfig) (*Session, error) {
	s := &Session{cfg: cfg}
	if err := s.start(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Close stops profiling, writes the requested artifacts, and restores the
// previous default registry. It is idempotent and nil-safe, and returns
// the combined error of every teardown step rather than stopping at the
// first, so a failed metrics write still flushes the profiles.
func (s *Session) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	var errs []error
	if err := s.srv.Close(); err != nil {
		errs = append(errs, fmt.Errorf("obs: listen: %w", err))
	}
	if s.cpu != nil {
		pprof.StopCPUProfile()
		if err := s.cpu.Close(); err != nil {
			errs = append(errs, fmt.Errorf("obs: cpu profile: %w", err))
		}
	}
	if s.traceF != nil {
		rtrace.Stop()
		if err := s.traceF.Close(); err != nil {
			errs = append(errs, fmt.Errorf("obs: runtime trace: %w", err))
		}
	}
	if s.cfg.MemProfile != "" {
		if err := writeMemProfile(s.cfg.MemProfile); err != nil {
			errs = append(errs, err)
		}
	}
	if s.swap {
		SetDefault(s.prev)
	}
	if s.reg != nil {
		snap := s.reg.Snapshot()
		if s.cfg.Metrics != "" {
			if err := writeSnapshot(snap, s.cfg.Metrics); err != nil {
				errs = append(errs, err)
			}
		}
		if s.cfg.Verbose {
			out := s.cfg.Log
			if out == nil {
				out = os.Stderr
			}
			if err := snap.WriteSpanTree(out); err != nil {
				errs = append(errs, fmt.Errorf("obs: span tree: %w", err))
			}
		}
	}
	return errors.Join(errs...)
}

func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: mem profile: %w", err)
	}
	runtime.GC() // materialise up-to-date heap statistics
	err = pprof.Lookup("allocs").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("obs: mem profile: %w", err)
	}
	return nil
}

func writeSnapshot(snap *Snapshot, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: metrics: %w", err)
	}
	err = snap.writeAs(f, path)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("obs: metrics: %w", err)
	}
	return nil
}
