package main

import (
	"flag"
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
	verbose    bool
}

// addObsFlags registers the observability flags on a verb's flag set.
func addObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.metrics, "metrics", "", "write a metrics snapshot here on exit (.csv for CSV, else JSON)")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a pprof CPU profile here")
	fs.StringVar(&o.memprofile, "memprofile", "", "write a pprof heap profile here on exit")
	fs.StringVar(&o.traceOut, "trace", "", "write a runtime/trace execution trace here")
	fs.BoolVar(&o.verbose, "v", false, "print the span-tree timing summary on exit")
	return o
}

// addIgnoredJobsFlags registers -profilejobs and -decodejobs on a verb's
// flag set.
//
// Deprecated: both are parsed and dropped — every profile runs inline.
// They exist only because the frozen bench/ module passes them to
// misscurve, hier and shared.
func addIgnoredJobsFlags(fs *flag.FlagSet) {
	fs.Int("profilejobs", 0, "accepted, no effect; kept for scripts")
	fs.Int("decodejobs", 0, "accepted, no effect; kept for scripts")
}

// start opens the session; the caller must defer Close (joined into the
// verb's returned error) so metrics and profiles flush on early exits.
func (o *obsFlags) start(out io.Writer) (*obs.Session, error) {
	return obs.StartSession(obs.SessionConfig{
		Metrics:    o.metrics,
		CPUProfile: o.cpuprofile,
		MemProfile: o.memprofile,
		Trace:      o.traceOut,
		Verbose:    o.verbose,
		Log:        out,
	})
}
