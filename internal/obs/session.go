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
	// Serve, when non-nil, serves the session's registry live until Close
	// (obshttp.Serve, for the experiment harness's -listen; a hook, so that
	// this package links no network stack). Arms a registry like Metrics.
	Serve func(*Registry) (io.Closer, error)
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
	cpu    *os.File
	traceF *os.File
	srv    io.Closer
	closed bool
}

// StartSession begins observing per cfg. On error, anything already
// started is shut down; the returned session (possibly inert) is always
// safe to Close.
func (s *Session) start() error {
	c := s.cfg
	if c.Metrics != "" || c.Verbose || c.Serve != nil {
		s.reg = NewRegistry()
		s.prev = SetDefault(s.reg)
	}
	if c.Serve != nil {
		srv, err := c.Serve(s.reg)
		if err != nil {
			return err
		}
		s.srv = srv
		if a, ok := srv.(interface{ Addr() string }); ok {
			fmt.Fprintf(c.Log, "obs: serving introspection on http://%s (/metrics, /metrics.json, /spans, /debug/pprof)\n", a.Addr())
		}
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
	if cfg.Log == nil {
		cfg.Log = os.Stderr
	}
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
	if s.srv != nil {
		if err := s.srv.Close(); err != nil {
			errs = append(errs, fmt.Errorf("obs: listen: %w", err))
		}
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
		runtime.GC() // materialise up-to-date heap statistics
		allocs := func(w io.Writer) error { return pprof.Lookup("allocs").WriteTo(w, 0) }
		if err := writeFile(s.cfg.MemProfile, "mem profile", allocs); err != nil {
			errs = append(errs, err)
		}
	}
	if s.reg != nil {
		SetDefault(s.prev)
		snap := s.reg.Snapshot()
		if s.cfg.Metrics != "" {
			if err := writeFile(s.cfg.Metrics, "metrics", func(w io.Writer) error { return snap.writeAs(w, s.cfg.Metrics) }); err != nil {
				errs = append(errs, err)
			}
		}
		if s.cfg.Verbose {
			if err := snap.WriteSpanTree(s.cfg.Log); err != nil {
				errs = append(errs, fmt.Errorf("obs: span tree: %w", err))
			}
		}
	}
	return errors.Join(errs...)
}

// writeFile creates path and fills it with write; its error names what
// was being written.
func writeFile(path, what string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("obs: %s: %w", what, err)
	}
	return nil
}
