package main

import (
	"flag"
	"fmt"
	"io"

	"streamsched/internal/obs"
)

// obsFlags is the observability flag block shared by the measuring verbs
// (simulate, misscurve, hier, shared): a metrics snapshot, pprof and
// runtime-trace capture, and the -v span-tree summary. The flags feed one
// obs.Session whose deferred Close flushes every artifact on all exit
// paths, early errors included.
type obsFlags struct {
	metrics    string
	cpuprofile string
	memprofile string
	traceOut   string
	listen     string
	verbose    bool
}

// addObsFlags registers the observability flags on a verb's flag set.
func addObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.metrics, "metrics", "", "write a metrics snapshot here on exit (.csv for CSV, else JSON)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile here")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile here on exit")
	fs.StringVar(&o.traceOut, "trace", "", "write a runtime/trace execution trace here")
	fs.StringVar(&o.listen, "listen", "", "serve live introspection on this address while the run lasts (/metrics, /metrics.json, /spans, /debug/pprof)")
	fs.BoolVar(&o.verbose, "v", false, "print the span-tree timing summary on exit")
	return o
}

// logWorkerChoice reports, under -v, the worker counts the hier/shared
// profiling pipeline actually chose — -profilejobs is capped at the
// grid's unit count and -decodejobs at the trace's chunk count. Reads the
// profile.shard.workers and profile.pipeline.decode.workers gauges the
// pipeline publishes, so it must run after the sweep; a pass that ran
// inline published neither, and nothing is printed.
func (o *obsFlags) logWorkerChoice(out io.Writer) {
	if !o.verbose {
		return
	}
	snap := obs.Default().Snapshot()
	if w, ok := snap.Gauges["profile.shard.workers"]; ok {
		fmt.Fprintf(out, "profile: %d shard worker(s), %d decode worker(s)\n",
			w, snap.Gauges["profile.pipeline.decode.workers"])
	}
}

// start opens the session; the caller must defer Close (joined into the
// verb's returned error) so metrics and profiles flush on early exits.
func (o *obsFlags) start(out io.Writer) (*obs.Session, error) {
	return obs.StartSession(obs.SessionConfig{
		Metrics:    o.metrics,
		CPUProfile: o.cpuprofile,
		MemProfile: o.memprofile,
		Trace:      o.traceOut,
		Listen:     o.listen,
		Verbose:    o.verbose,
		Log:        out,
	})
}
