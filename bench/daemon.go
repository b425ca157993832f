//go:build linux

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"streamsched/bench/kit"
)

// Daemon workload parameters the layer probe need not know (the rest are
// in kit/workload.go).
const (
	// coldCacheBytes holds about half of a cold run's responses, so the
	// second half of the timed section evicts on every insert.
	coldCacheBytes = 80 << 10
	coldPrefill    = 10
	// coldResends is how many earlier requests verify sends again.
	coldResends = 6
	// warmKeys is the number of prefilled keys, plan and profile mixed.
	warmKeys       = 64
	warmCacheBytes = 64 << 20
)

// daemonDriver runs a workload whose op is HTTP traffic against one
// streamschedd process sharing the driver's single CPU.
type daemonDriver struct {
	env    *benchEnv
	cold   bool
	cmd    *exec.Cmd
	stderr *daemonLog
	base   string
	client *http.Client

	next     int                 // cold: index of the next never-seen graph
	bodies   [][sha256.Size]byte // cold: hash of each response, by graph index
	keys     []warmKey           // warm: the prefilled requests
	fresh    uint32              // warm: variants made so far
	distinct int64               // distinct requests sent to this daemon
	peaks    []int64             // each op's peak resident set, KB
	cpusSeen map[string]string
}

// liveDaemon is the daemon process currently running, for the signal
// handler: a benchmark that is interrupted must not leave it behind.
var liveDaemon atomic.Pointer[os.Process]

// killDaemonOnSignal stops the live daemon and exits when the benchmark
// itself is told to stop.
func killDaemonOnSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-ch
		if p := liveDaemon.Load(); p != nil {
			p.Kill()
			p.Wait()
		}
		os.Exit(1)
	}()
}

// warmKey is one prefilled request of daemon-warm.
type warmKey struct {
	path     string
	body     []byte // the byte string the prefill sent
	variants kit.Variants
	response []byte // the miss body; every hit must equal it
}

func newDaemonCold(env *benchEnv) driver {
	return &daemonDriver{env: env, cold: true, cpusSeen: map[string]string{}}
}
func newDaemonWarm(env *benchEnv) driver {
	return &daemonDriver{env: env, cpusSeen: map[string]string{}}
}

// request builds the profile (or, measure == 0, plan) request for graph
// variant i of this run.
func (d *daemonDriver) request(i int, measure int64) kit.Request {
	kind := "warm"
	if d.cold {
		kind = "cold"
	}
	g := kit.Generate(d.env.seed, fmt.Sprintf("%s-seed%d-%d", kind, d.env.seed, i), i)
	q := kit.Request{Graph: g, M: kit.DesignM, B: kit.BlockB, Scheduler: "partitioned"}
	if measure != 0 {
		q.Warm, q.Measure, q.Caps = kit.DaemonWarm, measure, kit.DaemonCaps
	}
	return q
}

// daemonLog collects the daemon's standard error and announces the
// address it reports listening on.
type daemonLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan string // buffered; receives the address once
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if l.addr != nil {
		if _, rest, ok := strings.Cut(l.buf.String(), "listening on http://"); ok && strings.ContainsAny(rest, " \n") {
			l.addr <- strings.Fields(rest)[0]
			l.addr = nil
		}
	}
	return len(p), nil
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// start launches the daemon on a free port and waits for its health
// check.
func (d *daemonDriver) start(cacheBytes int64) error {
	addr := make(chan string, 1)
	d.stderr = &daemonLog{addr: addr}
	d.cmd = exec.Command(d.env.bins.daemon, "-listen", "127.0.0.1:0", "-cachebytes", strconv.FormatInt(cacheBytes, 10))
	d.cmd.Env = childEnv(d.env.outDir)
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		return err
	}
	liveDaemon.Store(d.cmd.Process)
	d.cpusSeen["streamschedd"], _ = kit.ProcStatusField(strconv.Itoa(d.cmd.Process.Pid), "Cpus_allowed_list")
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-time.After(10 * time.Second):
		d.tearDown()
		return fmt.Errorf("streamschedd did not report its address within 10 s: %s", d.stderr)
	}
	// One connection: the driver never holds more than the CPU set.
	d.client = &http.Client{Timeout: opTimeout, Transport: &http.Transport{
		MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			d.tearDown()
			return fmt.Errorf("streamschedd not healthy within 10 s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (d *daemonDriver) tearDown() error {
	if d.cmd == nil {
		return nil
	}
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	cmd := d.cmd
	d.cmd = nil
	defer liveDaemon.Store((*os.Process)(nil))
	cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("streamschedd exit: %v: %s", err, d.stderr)
		}
		return nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("streamschedd ignored SIGTERM for 10 s; killed")
	}
}

// post sends one request and returns the body after checking the status
// and the cache header.
func (d *daemonDriver) post(path string, body []byte, wantCache string) ([]byte, error) {
	resp, err := d.client.Post(d.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(got))
	}
	if c := resp.Header.Get("X-Streamsched-Cache"); wantCache != "" && c != wantCache {
		return nil, fmt.Errorf("POST %s: X-Streamsched-Cache %q, want %q", path, c, wantCache)
	}
	return got, nil
}

// oracle recomputes two capacities of one profile response with the
// pointwise `simulate` verb; the miss counts must be equal.
func (d *daemonDriver) oracle(q kit.Request, body []byte, r *kit.Rand) error {
	resp, err := kit.ParseProfileResponse(body)
	if err != nil {
		return err
	}
	path := d.env.runDir + "/oracle-graph.json"
	if err := os.WriteFile(path, q.Graph.JSON(), 0o644); err != nil {
		return err
	}
	for range 2 {
		p := resp.Points[r.Intn(len(resp.Points))]
		ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
		cmd := exec.CommandContext(ctx, d.env.bins.cli, "simulate", "-M", strconv.FormatInt(q.M, 10),
			"-B", strconv.FormatInt(q.B, 10), "-sched", q.Scheduler, "-cache", strconv.FormatInt(p.Capacity, 10),
			"-warm", strconv.FormatInt(q.Warm, 10), "-measure", strconv.FormatInt(q.Measure, 10), path)
		cmd.Env = childEnv(d.env.outDir)
		out, err := cmd.Output()
		cancel()
		if err != nil {
			return fmt.Errorf("streamsched simulate: %w", err)
		}
		misses, _, err := kit.ParseSimulate(string(out))
		if err != nil {
			return err
		}
		if misses != p.Misses {
			return fmt.Errorf("profile says %d misses at capacity %d, pointwise simulate says %d", p.Misses, p.Capacity, misses)
		}
	}
	return nil
}

func (d *daemonDriver) setUp() error {
	r := kit.NewRand(d.env.seed)
	d.distinct, d.next, d.fresh = 0, 0, 0
	if d.cold {
		if err := d.start(coldCacheBytes); err != nil {
			return err
		}
		d.bodies = d.bodies[:0]
		d.env.lap()
		for i := range coldPrefill {
			if err := d.coldPost(); err != nil {
				return err
			}
			if i%2 == 1 {
				d.env.lap()
			}
		}
		q := d.request(0, kit.DaemonMeasure)
		body, err := d.post(q.Path(), q.Body(), "hit")
		if err != nil {
			return err
		}
		if sha256.Sum256(body) != d.bodies[0] {
			return fmt.Errorf("hit body differs from the miss body for the same key")
		}
		if err := d.oracle(q, body, r); err != nil {
			return err
		}
	} else {
		if err := d.start(warmCacheBytes); err != nil {
			return err
		}
		d.keys = d.keys[:0]
		d.env.lap()
		for i := 0; i < warmKeys; i++ {
			if i%8 == 7 {
				d.env.lap()
			}
			// Even keys are profiles, odd keys plans of another graph.
			var measure int64
			if i%2 == 0 {
				measure = kit.WarmMeasure
			}
			q := d.request(i, measure)
			k := warmKey{path: q.Path(), body: q.Body(), variants: q.Variants()}
			var err error
			if k.response, err = d.post(k.path, k.body, "miss"); err != nil {
				return err
			}
			d.distinct++
			d.keys = append(d.keys, k)
		}
		if err := d.oracle(d.request(0, kit.WarmMeasure), d.keys[0].response, r); err != nil {
			return err
		}
	}
	for i := 1; i <= warmupOps; i++ {
		d.env.lap()
		if err := d.op(-i); err != nil {
			return err
		}
	}
	return nil
}

// coldPost profiles the next never-seen graph.
func (d *daemonDriver) coldPost() error {
	q := d.request(d.next, kit.DaemonMeasure)
	d.next++
	d.distinct++
	span := d.env.rec.child("POST /v1/profile (cold)", "http.request")
	body, err := d.post(q.Path(), q.Body(), "miss")
	d.env.rec.end(span)
	if err != nil {
		return err
	}
	d.bodies = append(d.bodies, sha256.Sum256(body))
	return nil
}

// op is one never-seen profile (cold) or one batch of hits (warm). The
// batch's key sequence depends on the seed and the op index only.
func (d *daemonDriver) op(i int) error {
	// The daemon's high-water mark is reset before the op and read after
	// it, so every op yields its own peak. Where the kernel refuses the
	// reset the readings are the running maximum, which is still a peak.
	pid := strconv.Itoa(d.cmd.Process.Pid)
	os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
	defer func() {
		if hwm, err := kit.ProcStatusField(pid, "VmHWM"); err == nil {
			if kb, err := strconv.ParseInt(strings.TrimSuffix(hwm, " kB"), 10, 64); err == nil {
				d.peaks = append(d.peaks, kb)
			}
		}
	}()
	if d.cold {
		return d.coldPost()
	}
	r := kit.NewRand(d.env.seed<<32 ^ uint64(int64(i)))
	span := d.env.rec.child("batch of hits", "http.request")
	defer d.env.rec.end(span)
	for j := 0; j < kit.WarmBatch; j++ {
		k := &d.keys[r.Intn(len(d.keys))]
		body := k.body
		if j%kit.WarmFreshEvery == kit.WarmFreshEvery-1 {
			d.fresh++
			body = k.variants.Body(d.fresh)
		}
		got, err := d.post(k.path, body, "hit")
		if err != nil {
			return err
		}
		if !bytes.Equal(got, k.response) {
			return fmt.Errorf("hit body differs from the miss body for the same key")
		}
	}
	return nil
}

func (d *daemonDriver) stats() (*kit.DaemonStats, error) {
	resp, err := d.client.Get(d.base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return kit.ParseStats(body)
}

// verify checks the daemon's own count of computations against the
// number of distinct requests sent, then (cold) re-sends six seed-chosen
// requests: hit or recomputed after eviction, the body must be the one
// first served.
func (d *daemonDriver) verify() ([]string, map[string]kit.Metric) {
	var problems []string
	st, err := d.stats()
	if err != nil {
		return []string{fmt.Sprintf("stats: %v", err)}, nil
	}
	counts := map[string]kit.Metric{
		"daemon.computations":  {Value: float64(st.Computations), Unit: "count"},
		"daemon.evictions":     {Value: float64(st.Evictions), Unit: "count"},
		"daemon.fastpath_hits": {Value: float64(st.Fastpath), Unit: "count"},
		"daemon.cache_entries": {Value: float64(st.CacheEntries), Unit: "count"},
	}
	if st.Computations != d.distinct {
		problems = append(problems, fmt.Sprintf("daemon computed %d times for %d distinct requests", st.Computations, d.distinct))
	}
	if st.Errors != 0 {
		problems = append(problems, fmt.Sprintf("daemon counted %d errors", st.Errors))
	}
	if d.cold {
		r := kit.NewRand(d.env.seed ^ 0xC01D)
		for range coldResends {
			i := r.Intn(d.next)
			q := d.request(i, kit.DaemonMeasure)
			body, err := d.post(q.Path(), q.Body(), "")
			if err != nil {
				problems = append(problems, err.Error())
			} else if sha256.Sum256(body) != d.bodies[i] {
				problems = append(problems, fmt.Sprintf("graph %d: re-sent request got a different body", i))
			}
		}
	}
	return problems, counts
}

// usage reads the daemon's CPU time from /proc.
func (d *daemonDriver) usage() (float64, error) {
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	return kit.ProcCPUSeconds(string(stat))
}

func (d *daemonDriver) opPeaksKB() []int64 { return d.peaks }

func (d *daemonDriver) childCPUs() map[string]string { return d.cpusSeen }

func (d *daemonDriver) probeInputs(n int) probeInputs {
	in := probeInputs{warm: kit.DaemonWarm, measure: kit.DaemonMeasure, daemonMeasure: kit.DaemonMeasure}
	if !d.cold {
		in.measure, in.daemonMeasure = kit.WarmMeasure, kit.WarmMeasure
	}
	for i := 0; i < n; i++ {
		in.graphs = append(in.graphs, d.request(i, 0).Graph)
	}
	return in
}
