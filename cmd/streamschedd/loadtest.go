package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamsched/internal/obs"
	"streamsched/internal/sdf"
	"streamsched/workloads"
)

// cmdLoadtest (streamschedd loadtest) drives a running daemon with a
// closed-loop client pool and reports client-side throughput, cache
// behaviour (from the X-Streamsched-Cache header), and latency
// percentiles. It exists to make the daemon's headline claim — tens of
// thousands of cached plan requests per second — reproducible with one
// command, and it is what the CI daemon-smoke job runs.
func cmdLoadtest(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("loadtest", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addr := fs.String("addr", "http://127.0.0.1:8372", "daemon base URL")
	kind := fs.String("kind", "plan", "request kind: plan or profile")
	conc := fs.Int("c", 32, "concurrent client workers")
	n := fs.Int64("n", 20000, "total requests to send")
	distinct := fs.Int("distinct", 4, "distinct graph variants to cycle through")
	workload := fs.String("workload", "fmradio", "workload family for generated graphs")
	m := fs.Int64("M", 512, "design cache size in words")
	b := fs.Int64("B", 16, "block size in words")
	scale := fs.Int64("scale", 64, "base state scale; variant i uses scale+16i, wrapped to keep modules within -M")
	warm := fs.Int64("warm", 64, "profile warmup firings (kind profile)")
	measure := fs.Int64("measure", 256, "profile measured firings (kind profile)")
	minRate := fs.Float64("minrate", 0, "fail if throughput falls below this many req/s (0: report only)")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	if fs.NArg() != 0 {
		return errUsage
	}
	if *kind != "plan" && *kind != "profile" {
		return fmt.Errorf("loadtest: bad -kind %q (want plan or profile)\n%w", *kind, errUsage)
	}
	if *conc <= 0 || *n <= 0 || *distinct <= 0 {
		return fmt.Errorf("loadtest: -c, -n, and -distinct must be positive\n%w", errUsage)
	}

	bodies, err := loadtestBodies(*kind, *workload, *distinct, *m, *b, *scale, *warm, *measure)
	if err != nil {
		return err
	}
	base, err := url.Parse(strings.TrimRight(*addr, "/"))
	if err != nil || base.Scheme != "http" {
		return fmt.Errorf("loadtest: -addr %q is not an http:// URL\n%w", *addr, errUsage)
	}
	path := base.Path + "/v1/" + *kind
	conns := make([]*loadtestConn, *conc)
	for w := range conns {
		conn, err := net.Dial("tcp", base.Host)
		if err != nil {
			return fmt.Errorf("loadtest: %w", err)
		}
		defer conn.Close()
		conns[w] = &loadtestConn{host: base.Host, conn: conn, br: bufio.NewReader(conn)}
	}

	// Warm each distinct body once so the measured phase exercises the
	// cached path (the first pass pays the computations).
	warmStart := time.Now()
	for i, body := range bodies {
		status, _, _, err := conns[0].do(http.MethodPost, path, body)
		if err != nil {
			return fmt.Errorf("loadtest: warmup variant %d: %w", i, err)
		}
		if status != http.StatusOK {
			return fmt.Errorf("loadtest: warmup variant %d: HTTP %d", i, status)
		}
	}
	warmElapsed := time.Since(warmStart)

	// Measured phase: conc closed-loop workers share a global request
	// counter and cycle deterministically over the variant bodies.
	var next, hits, misses, failures atomic.Int64
	lat := new(obs.Histogram)
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= *n {
					return
				}
				body := bodies[int(i)%len(bodies)]
				t0 := time.Now()
				status, cache, _, err := c.do(http.MethodPost, path, body)
				lat.Observe(time.Since(t0))
				switch {
				case err != nil:
					failures.Add(1)
					firstErr.CompareAndSwap(nil, err)
				case status != http.StatusOK:
					failures.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("HTTP %d", status))
				case cache == "hit":
					hits.Add(1)
				default:
					misses.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	st := lat.Stats()
	reqPerSec := float64(*n) / elapsed.Seconds()
	fmt.Fprintf(out, "loadtest:     %s %s x%d variants, M=%d B=%d\n", *kind, *workload, *distinct, *m, *b)
	fmt.Fprintf(out, "warmup:       %d requests in %v\n", len(bodies), warmElapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "requests:     %d over %d workers in %v\n", *n, *conc, elapsed.Round(time.Millisecond))
	fmt.Fprintf(out, "throughput:   %.1f req/s\n", reqPerSec)
	fmt.Fprintf(out, "client cache: %d hits, %d misses (%.2f%% hit)\n",
		hits.Load(), misses.Load(), 100*float64(hits.Load())/float64(*n))
	fmt.Fprintf(out, "latency:      p50 %v  p90 %v  p99 %v  max %v\n",
		time.Duration(st.P50).Round(time.Microsecond), time.Duration(st.P90).Round(time.Microsecond),
		time.Duration(st.P99).Round(time.Microsecond), time.Duration(st.Max).Round(time.Microsecond))
	fmt.Fprintf(out, "errors:       %d\n", failures.Load())

	// Server-side view, so a smoke run can cross-check the client's hit
	// accounting against the daemon's own counters.
	var stats map[string]any
	if _, _, data, err := conns[0].do(http.MethodGet, base.Path+"/v1/stats", nil); err == nil && json.Unmarshal(data, &stats) == nil {
		fmt.Fprintf(out, "server:       computations %v, cache hits %v, shared %v, entries %v\n",
			stats["computations"], stats["cache_hits"], stats["shared"], stats["cache_entries"])
	}
	if failures.Load() > 0 {
		err, _ := firstErr.Load().(error)
		return fmt.Errorf("loadtest: %d/%d requests failed (first: %v)", failures.Load(), *n, err)
	}
	if *minRate > 0 && reqPerSec < *minRate {
		return fmt.Errorf("loadtest: throughput %.1f req/s below required %.1f", reqPerSec, *minRate)
	}
	return nil
}

// loadtestBodies builds the distinct request payloads: one workload graph
// per variant, with the state scale stepped by 16 so each variant hashes
// to its own cache entry. A scale whose largest module would not fit in m
// is never used (the base scale aside): the variants wrap around to the
// base scale, and a wrapped variant's graph name carries its round.
func loadtestBodies(kind, workload string, distinct int, m, b, scale, warm, measure int64) ([][]byte, error) {
	bodies := make([][]byte, 0, distinct)
	var fit []*sdf.Graph // the graphs at scale, scale+16, … up to the first that does not fit
	for i := 0; i < distinct; i++ {
		if len(fit) == i {
			g, err := workloads.ByName(workload, scale+16*int64(i))
			if err != nil {
				return nil, fmt.Errorf("%w\n%w", err, errUsage)
			}
			if i == 0 || maxState(g) <= m {
				fit = append(fit, g)
			}
		}
		g := fit[i%len(fit)]
		if round := i / len(fit); round > 0 {
			var err error
			if g, err = renamed(g, fmt.Sprintf("%s-%d", g.Name(), round)); err != nil {
				return nil, err
			}
		}
		var graph bytes.Buffer
		if err := g.WriteJSON(&graph); err != nil {
			return nil, err
		}
		req := map[string]any{"graph": json.RawMessage(graph.Bytes()), "m": m, "b": b}
		if kind == "profile" {
			req["warm"] = warm
			req["measure"] = measure
		}
		body, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// maxState returns the state of g's largest module.
func maxState(g *sdf.Graph) int64 {
	var most int64
	for v := range g.NumNodes() {
		most = max(most, g.Node(sdf.NodeID(v)).State)
	}
	return most
}

// renamed returns a copy of g under another name.
func renamed(g *sdf.Graph, name string) (*sdf.Graph, error) {
	b := sdf.NewBuilder(name)
	for v := range g.NumNodes() {
		n := g.Node(sdf.NodeID(v))
		b.AddNode(n.Name, n.State)
	}
	for e := range g.NumEdges() {
		ed := g.Edge(sdf.EdgeID(e))
		b.Connect(ed.From, ed.To, ed.Out, ed.In)
	}
	return b.Build()
}

// loadtestConn is one keep-alive HTTP/1.1 connection to the daemon. The
// load driver writes requests and reads responses on it itself: through
// net/http's Transport, the client stack (HTTP/2, proxies, TLS) would
// link into the daemon's binary, and daemon-warm measured ~7% more
// daemon peak RSS with it.
type loadtestConn struct {
	host string
	conn net.Conn
	br   *bufio.Reader
}

// do sends one request and reads the whole response, so the connection
// is ready for the next. It returns the status, the X-Streamsched-Cache
// header and the body.
func (c *loadtestConn) do(method, path string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequest(method, "http://"+c.host+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	if err := req.Write(c.conn); err != nil {
		return 0, "", nil, err
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		return 0, "", nil, err
	}
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Streamsched-Cache"), data, err
}
