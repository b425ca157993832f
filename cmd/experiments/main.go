// Command experiments regenerates every experiment listed in
// cmd/experiments/README.md: the empirical validation of the paper's theorems
// (lower/upper bound sandwich, partitioned-vs-baseline comparisons,
// parameter sweeps, ablations) on the DAM cache simulator.
//
// Usage:
//
//	experiments [-run E1,E4] [-jobs N] [-full] [-seed N]
//	            [-metrics <file>] [-cpuprofile <file>] [-memprofile <file>] [-trace <file>]
//	            [-listen <addr>] [-v]
//
// By default every experiment runs with moderate ("quick") parameters;
// -full enlarges graphs and measurement windows. -jobs N runs up to N
// experiments concurrently on a goroutine pool (each with buffered
// output, printed in registry order), parallelising the full harness on
// top of the per-experiment parallelism the sweep-based experiments
// already have. The process exits non-zero if any selected experiment
// fails, and refuses unknown experiment ids.
//
// The observability flags mirror streamsched's: -metrics writes an
// internal/obs snapshot (JSON, or CSV for a .csv path) on exit,
// -cpuprofile/-memprofile/-trace capture pprof and runtime/trace
// artifacts, -listen serves live introspection (/metrics, /metrics.json,
// /spans, /debug/pprof) while the harness runs, and -v prints the
// span-tree timing summary. All of them flush on every exit path,
// failures included. Each experiment runs under a pprof experiment=<id>
// label, so CPU profiles attribute samples per experiment.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"streamsched/internal/obs"
	"streamsched/internal/obs/obshttp"
	"streamsched/internal/trace"
)

// experiment is a registered, reproducible experiment.
type experiment struct {
	id    string
	title string
	run   func(cfg runConfig) error
}

type runConfig struct {
	full bool
	seed int64
	out  io.Writer // per-experiment output stream
}

var registry []experiment

func register(id, title string, run func(runConfig) error) {
	registry = append(registry, experiment{id: id, title: title, run: run})
}

func main() {
	os.Exit(realMain())
}

// realMain is main minus os.Exit, so the observability session's
// deferred Close flushes metrics and profiles on every exit path —
// failed experiments and flag errors included.
func realMain() (code int) {
	runList := flag.String("run", "", "comma-separated experiment ids, or \"all\" (default: all)")
	jobs := flag.Int("jobs", 1, "experiments to run concurrently (<=1: sequential, streaming output)")
	full := flag.Bool("full", false, "use full-size parameters (slower)")
	seed := flag.Int64("seed", 1, "seed for randomized workloads")
	list := flag.Bool("list", false, "list experiments and exit")
	metrics := flag.String("metrics", "", "write a metrics snapshot here on exit (.csv for CSV, else JSON)")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile here")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile here on exit")
	traceOut := flag.String("trace", "", "write a runtime/trace execution trace here")
	listen := flag.String("listen", "", "serve live introspection on this address while the harness runs")
	verbose := flag.Bool("v", false, "print the span-tree timing summary on exit")
	flag.Parse()

	sortRegistry()
	if *list {
		for _, e := range registry {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return 0
	}
	selected, err := selectExperiments(*runList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var serve func(*obs.Registry) (io.Closer, error)
	if *listen != "" {
		serve = func(reg *obs.Registry) (io.Closer, error) { return obshttp.Serve(*listen, reg) }
	}
	sess, err := obs.StartSession(obs.SessionConfig{
		Metrics:    *metrics,
		CPUProfile: *cpuprofile,
		MemProfile: *memprofile,
		Trace:      *traceOut,
		Serve:      serve,
		Verbose:    *verbose,
		Log:        os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer func() {
		if err := sess.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()
	cfg := runConfig{full: *full, seed: *seed}
	if failed := runExperiments(selected, cfg, *jobs, os.Stdout); failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}

func sortRegistry() {
	sort.Slice(registry, func(i, j int) bool {
		return experimentOrder(registry[i].id) < experimentOrder(registry[j].id)
	})
}

// selectExperiments resolves the -run flag against the registry: empty or
// "all" selects everything, anything else must name registered ids.
func selectExperiments(runList string) ([]experiment, error) {
	runList = strings.TrimSpace(runList)
	if runList == "" || strings.EqualFold(runList, "all") {
		return registry, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(runList, ",") {
		id = strings.ToUpper(strings.TrimSpace(id))
		if id == "" {
			continue
		}
		want[id] = false
	}
	var out []experiment
	for _, e := range registry {
		if _, ok := want[e.id]; ok {
			want[e.id] = true
			out = append(out, e)
		}
	}
	for id, seen := range want {
		if !seen {
			return nil, fmt.Errorf("experiments: unknown experiment %q (use -list)", id)
		}
	}
	return out, nil
}

// runExperiments executes the selected experiments and returns how many
// failed. With jobs <= 1 each experiment streams straight to out; with
// more, experiments run concurrently on a bounded pool, each into its own
// buffer, and the buffers are printed in selection order once all are
// done. Failures are reported inline (after the experiment's output) so
// buffered and streaming modes read the same.
func runExperiments(exps []experiment, cfg runConfig, jobs int, out io.Writer) int {
	runOne := func(e experiment, w io.Writer) error {
		fmt.Fprintf(w, "=== %s: %s ===\n", e.id, e.title)
		start := time.Now()
		ecfg := cfg
		ecfg.out = w
		var err error
		pprof.Do(context.Background(), pprof.Labels("experiment", e.id), func(context.Context) {
			err = e.run(ecfg)
		})
		if err != nil {
			fmt.Fprintf(w, "%s failed: %v\n", e.id, err)
		}
		fmt.Fprintf(w, "(%s in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
		return err
	}
	if jobs <= 1 {
		failed := 0
		for _, e := range exps {
			if runOne(e, out) != nil {
				failed++
			}
		}
		return failed
	}
	sweepJobs := make([]trace.Job[string], len(exps))
	for i, e := range exps {
		sweepJobs[i] = trace.Job[string]{
			Name: e.id,
			Run: func() (string, error) {
				var buf bytes.Buffer
				err := runOne(e, &buf)
				return buf.String(), err
			},
		}
	}
	failed := 0
	for _, o := range trace.Sweep(sweepJobs, jobs) {
		io.WriteString(out, o.Value)
		if o.Err != nil {
			failed++
		}
	}
	return failed
}

// experimentOrder sorts E2 before E10.
func experimentOrder(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}
