// Command streamschedd is the long-running scheduling service: an
// HTTP/JSON daemon that plans and profiles SDF graphs on demand, with a
// content-addressed result cache in front of the engine. SERVICE.md is
// the operator reference.
//
// Usage:
//
//	streamschedd [-listen 127.0.0.1:8372] [-cachebytes 256m] [-jobs N]
//	             [-timeout 60s] [-maxbody 8m]
//
// The process serves until SIGINT/SIGTERM, then drains in-flight
// requests (bounded by the request timeout) before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streamsched/internal/obs"
	"streamsched/internal/server"
)

func main() {
	if err := realMain(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "streamschedd:", err)
		os.Exit(1)
	}
}

// realMain runs the daemon until ctx-equivalent shutdown. logw receives
// startup/shutdown lines; ready (tests only) is closed with the bound
// address once the listener is accepting.
func realMain(args []string, logw io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("streamschedd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	listen := fs.String("listen", "127.0.0.1:8372", "listen address")
	cacheBytes := fs.String("cachebytes", "256m", "result cache byte budget (k/m/g suffixes; 0 disables)")
	jobs := fs.Int("jobs", 0, "max concurrent computations (0: one per CPU)")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request wait bound")
	maxBody := fs.String("maxbody", "8m", "request body size limit (k/m/g suffixes)")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("usage: streamschedd [-listen addr] [-cachebytes n] [-jobs n] [-timeout d] [-maxbody n] (%v)", err)
	}
	budget, err := parseBytes(*cacheBytes)
	if err != nil {
		return fmt.Errorf("-cachebytes: %w", err)
	}
	bodyLimit, err := parseBytes(*maxBody)
	if err != nil {
		return fmt.Errorf("-maxbody: %w", err)
	}

	reg := obs.NewRegistry()
	srv := server.New(server.Config{
		CacheBytes:   budget,
		Jobs:         *jobs,
		Timeout:      *timeout,
		MaxBodyBytes: bodyLimit,
		Metrics:      reg,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	fmt.Fprintf(logw, "streamschedd: engine %s\n", server.EngineVersion)
	fmt.Fprintf(logw, "streamschedd: cache budget %d bytes, jobs %d (0 means %d), timeout %v\n",
		budget, *jobs, runtime.GOMAXPROCS(0), *timeout)
	fmt.Fprintf(logw, "streamschedd: listening on http://%s (POST /v1/plan, /v1/profile; GET /metrics)\n",
		ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(logw, "streamschedd: shutting down\n")
	sdCtx, cancel := context.WithTimeout(context.Background(), *timeout+5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sdCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintf(logw, "streamschedd: bye\n")
	return nil
}

// parseBytes parses a byte count with optional k/m/g suffixes (base
// 1024).
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	ls := strings.ToLower(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(ls, "k"):
		mult, ls = 1<<10, ls[:len(ls)-1]
	case strings.HasSuffix(ls, "m"):
		mult, ls = 1<<20, ls[:len(ls)-1]
	case strings.HasSuffix(ls, "g"):
		mult, ls = 1<<30, ls[:len(ls)-1]
	}
	v, err := strconv.ParseInt(ls, 10, 64)
	if err != nil {
		return 0, err
	}
	return v * mult, nil
}
