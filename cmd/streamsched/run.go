package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"streamsched"
	"streamsched/internal/cachesim"
	"streamsched/internal/partition"
	"streamsched/internal/ratio"
	"streamsched/internal/report"
	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
	"streamsched/workloads"
)

// errUsage is returned for malformed invocations.
var errUsage = errors.New(`usage:
  streamsched info <graph.json>
  streamsched partition -M <words> [-algo auto|theorem5|dp|interval|agglomerative|exact] [-dot <out.dot>] <graph.json>
  streamsched simulate -M <words> -B <words> [-cache <words>] [-ways N] [-policy lru|fifo] [-sched <name>] [-warm N] [-measure N] [-scale N] <graph.json>
  streamsched misscurve -M <words> -B <words> [-sched <name>|all] [-caps c1,c2,...] [-ways w1,w2,full] [-policy lru|fifo|both] [-warm N] [-measure N] [-scale N] [-csv] <graph.json>
  streamsched hier -M <words> -B <words> -l1caps c1,... -l2caps c1,... [-sched <name>|all] [-l1ways w,full] [-l2ways w,full] [-l1policy lru|fifo] [-l2policy lru|fifo] [-l2block <words>] [-amat l1,l2,mem] [-warm N] [-measure N] [-scale N] [-csv] <graph.json>
  streamsched shared -M <words> -B <words> -P <procs> -l1caps c1,... -l2caps c1,... [-rule auto|homogeneous|pipeline] [-algo <name>|singleton] [-l1ways w,full] [-l2ways w,full] [-l1policy lru|fifo] [-l2policy lru|fifo] [-l2block <words>] [-amat l1,l2,mem] [-warm N] [-measure N] [-detail=false] [-csv] <graph.json>
  streamsched bound -M <words> -B <words> <graph.json>
  streamsched buffers -M <words> [-B <words>] [-sched <name>] [-probe N] [-scale N] <graph.json>
  streamsched compile -M <words> [-B <words>] [-sched <name>] [-warm N] [-max N] [-scale N] [-o <file>] <graph.json>
  streamsched export -workload <name> [-scale <words>] [-o <file>]
workloads: fmradio filterbank beamformer fft bitonic des mp3
schedulers: flat scaled demand kohli partitioned
observability (simulate, misscurve, hier, shared): [-metrics <file>] [-cpuprofile <file>] [-memprofile <file>] [-trace <file>] [-v]
accepted and ignored (misscurve, hier, shared): [-profilejobs N] [-decodejobs N]`)

// run dispatches a CLI invocation; out receives normal output.
func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	switch args[0] {
	case "info":
		return cmdInfo(args[1:], out)
	case "partition":
		return cmdPartition(args[1:], out)
	case "simulate":
		return cmdSimulate(args[1:], out)
	case "misscurve":
		return cmdMissCurve(args[1:], out)
	case "hier":
		return cmdHier(args[1:], out)
	case "shared":
		return cmdShared(args[1:], out)
	case "bound":
		return cmdBound(args[1:], out)
	case "buffers":
		return cmdBuffers(args[1:], out)
	case "compile":
		return cmdCompile(args[1:], out)
	case "export":
		return cmdExport(args[1:], out)
	case "help", "-h", "--help":
		fmt.Fprintln(out, errUsage.Error())
		return nil
	default:
		return fmt.Errorf("unknown command %q\n%w", args[0], errUsage)
	}
}

// loadGraph reads the single positional argument as a graph file.
func loadGraph(fs *flag.FlagSet) (*sdf.Graph, error) {
	if fs.NArg() != 1 {
		return nil, errUsage
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return sdf.ReadJSON(f)
}

func cmdInfo(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	g, err := loadGraph(fs)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, g.String())
	tb := report.NewTable("modules", "id", "name", "state", "reps", "gain", "in", "out")
	for v := 0; v < g.NumNodes(); v++ {
		id := sdf.NodeID(v)
		tb.Add(report.I(int64(v)), g.Node(id).Name, report.I(g.Node(id).State),
			report.I(g.Repetitions(id)), g.Gain(id).String(),
			report.I(int64(len(g.InEdges(id)))), report.I(int64(len(g.OutEdges(id)))))
	}
	if err := tb.Render(out); err != nil {
		return err
	}
	eb := report.NewTable("channels", "id", "from", "to", "out", "in", "gain", "minBuf")
	for e := 0; e < g.NumEdges(); e++ {
		id := sdf.EdgeID(e)
		ed := g.Edge(id)
		eb.Add(report.I(int64(e)), g.Node(ed.From).Name, g.Node(ed.To).Name,
			report.I(ed.Out), report.I(ed.In), g.EdgeGain(id).String(), report.I(g.MinBuf(id)))
	}
	return eb.Render(out)
}

func cmdPartition(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("partition", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	m := fs.Int64("M", 0, "component state bound in words")
	algo := fs.String("algo", "auto", "partitioning algorithm")
	dotPath := fs.String("dot", "", "write a Graphviz rendering here")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	g, err := loadGraph(fs)
	if err != nil {
		return err
	}
	if *m <= 0 {
		return fmt.Errorf("partition: -M must be positive\n%w", errUsage)
	}
	p, err := partitionBy(*algo, g, *m)
	if err != nil {
		return err
	}
	bw, err := p.Bandwidth(g)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s: %d components, bandwidth %s items/source-firing, max component state %d\n",
		*algo, p.K, bw.String(), p.MaxComponentState(g))
	tb := report.NewTable("components", "component", "modules", "state", "degree")
	members := p.Members(g)
	degrees := p.ComponentDegree(g)
	for c := 0; c < p.K; c++ {
		names := make([]string, 0, len(members[c]))
		for _, v := range members[c] {
			names = append(names, g.Node(v).Name)
		}
		tb.Add(report.I(int64(c)), strings.Join(names, " "),
			report.I(p.ComponentState(g, c)), report.I(int64(degrees[c])))
	}
	if err := tb.Render(out); err != nil {
		return err
	}
	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := g.WriteDOT(f, p.Assign, p.K); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %s\n", *dotPath)
	}
	return nil
}

func partitionBy(algo string, g *sdf.Graph, m int64) (*partition.Partition, error) {
	switch algo {
	case "auto":
		return partition.Auto(g, m)
	case "theorem5":
		return partition.PipelineTheorem5(g, m)
	case "dp":
		return partition.PipelineOptimalDP(g, m)
	case "interval":
		return partition.BestInterval(g, m)
	case "agglomerative":
		return partition.Agglomerative(g, m)
	case "exact":
		return partition.Exact(g, m)
	default:
		return nil, fmt.Errorf("unknown algorithm %q\n%w", algo, errUsage)
	}
}

func cmdSimulate(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	of := addObsFlags(fs)
	m := fs.Int64("M", 0, "design cache size in words")
	b := fs.Int64("B", 16, "block size in words")
	cache := fs.Int64("cache", 0, "simulated cache capacity (default 2M)")
	ways := fs.Int("ways", 0, "set associativity (0: fully associative)")
	policy := fs.String("policy", "lru", "replacement policy: lru or fifo")
	sched := fs.String("sched", "partitioned", "scheduler")
	warm := fs.Int64("warm", 1024, "warmup source firings")
	meas := fs.Int64("measure", 4096, "measured source firings")
	scale := fs.Int64("scale", 4, "scaling factor for -sched scaled")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	g, err := loadGraph(fs)
	if err != nil {
		return err
	}
	if *m <= 0 || *b <= 0 {
		return fmt.Errorf("simulate: -M and -B must be positive\n%w", errUsage)
	}
	if *warm < 0 {
		return fmt.Errorf("simulate: warm must be non-negative, got %d\n%w", *warm, errUsage)
	}
	if *cache == 0 {
		*cache = 2 * *m
	}
	pol, err := parsePolicy("simulate", "-policy", *policy)
	if err != nil {
		return fmt.Errorf("%v\n%w", err, errUsage)
	}
	s, err := schedulerBy(*sched, g, *scale)
	if err != nil {
		return err
	}
	sess, err := of.start(out)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, sess.Close()) }()
	env := schedule.Env{M: *m, B: *b}
	cacheCfg := cachesim.Config{Capacity: *cache, Block: *b, Ways: *ways, Policy: pol}
	res, err := schedule.Measure(g, s, env, cacheCfg, *warm, *meas)
	if err != nil {
		return err
	}
	org := "fully-associative"
	if *ways > 0 {
		org = fmt.Sprintf("%d-way", *ways)
	}
	fmt.Fprintf(out, "graph:        %s\n", res.Graph)
	fmt.Fprintf(out, "scheduler:    %s\n", res.Scheduler)
	fmt.Fprintf(out, "cache:        %d words, block %d, %s %s (designed for M=%d)\n", *cache, *b, org, pol, *m)
	fmt.Fprintf(out, "window:       %d source firings, %d input items\n", res.SourceFired, res.InputItems)
	fmt.Fprintf(out, "misses:       %d (%.4f per input item)\n", res.Stats.Misses, res.MissesPerItem)
	fmt.Fprintf(out, "accesses:     %d block accesses, %d hits\n", res.Stats.Accesses, res.Stats.Hits)
	fmt.Fprintf(out, "buffer words: %d\n", res.BufferWords)
	return nil
}

// schedulerBy resolves a -sched name through the scheduler registry; an
// unknown name is a usage error.
func schedulerBy(name string, g *sdf.Graph, scale int64) (schedule.Scheduler, error) {
	s, err := schedule.ByName(name, g, scale)
	if err != nil {
		return nil, fmt.Errorf("%v\n%w", err, errUsage)
	}
	return s, nil
}

// schedulersBy expands a -sched value that may be "all": the baselines
// plus the shape-appropriate partitioned scheduler.
func schedulersBy(name string, g *sdf.Graph, scale int64) ([]schedule.Scheduler, error) {
	if name == "all" {
		return append(schedule.Baselines(), schedule.Partitioned(g, nil)), nil
	}
	s, err := schedulerBy(name, g, scale)
	return []schedule.Scheduler{s}, err
}

func cmdBound(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bound", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	m := fs.Int64("M", 0, "cache size in words")
	b := fs.Int64("B", 16, "block size in words")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	g, err := loadGraph(fs)
	if err != nil {
		return err
	}
	if *m <= 0 || *b <= 0 {
		return fmt.Errorf("bound: -M and -B must be positive\n%w", errUsage)
	}
	bound, err := streamsched.LowerBound(g, *m, *b)
	if err != nil {
		return err
	}
	kind := "exact"
	if !bound.Exact {
		kind = "heuristic estimate"
	}
	fmt.Fprintf(out, "lower bound (%s): %.4f misses per source firing\n", kind, bound.PerSourceFiring)
	fmt.Fprintf(out, "bandwidth term:   %s items per source firing over %d segments/components\n",
		bound.Bandwidth.String(), bound.Segments)
	return nil
}

func cmdBuffers(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("buffers", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	m := fs.Int64("M", 0, "design cache size in words")
	b := fs.Int64("B", 16, "block size in words")
	sched := fs.String("sched", "partitioned", "scheduler")
	probe := fs.Int64("probe", 4096, "probe source firings")
	scale := fs.Int64("scale", 4, "scaling factor for -sched scaled")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	g, err := loadGraph(fs)
	if err != nil {
		return err
	}
	if *m <= 0 {
		return fmt.Errorf("buffers: -M must be positive\n%w", errUsage)
	}
	s, err := schedulerBy(*sched, g, *scale)
	if err != nil {
		return err
	}
	uses, err := schedule.BufferUtilization(g, s, schedule.Env{M: *m, B: *b}, *probe)
	if err != nil {
		return err
	}
	tb := report.NewTable(fmt.Sprintf("buffer utilization (%s, %d probe firings)", s.Name(), *probe),
		"edge", "from", "to", "kind", "cap", "high-water", "util")
	var total, used int64
	for _, u := range uses {
		ed := g.Edge(u.Edge)
		kind := "internal"
		if u.Cross {
			kind = "cross"
		}
		tb.Add(report.I(int64(u.Edge)), g.Node(ed.From).Name, g.Node(ed.To).Name, kind,
			report.I(u.Cap), report.I(u.HighWater), report.F(u.Utilization()))
		total += u.Cap
		used += u.HighWater
	}
	if err := tb.Render(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "total buffer words: %d allocated, %d peak-used (%.1f%%)\n",
		total, used, 100*float64(used)/float64(total))
	return nil
}

func cmdCompile(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compile", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	m := fs.Int64("M", 0, "design cache size in words")
	b := fs.Int64("B", 16, "block size in words")
	sched := fs.String("sched", "partitioned", "scheduler to compile")
	output := fs.String("o", "", "output file (default stdout)")
	warm := fs.Int64("warm", 0, "warmup source firings before cycle detection (default 8M)")
	maxSource := fs.Int64("max", 0, "recording bound in source firings (default 1024M)")
	scale := fs.Int64("scale", 4, "scaling factor for -sched scaled")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	g, err := loadGraph(fs)
	if err != nil {
		return err
	}
	if *m <= 0 {
		return fmt.Errorf("compile: -M must be positive\n%w", errUsage)
	}
	if *warm == 0 {
		*warm = 8 * *m
	}
	if *maxSource == 0 {
		*maxSource = 1024 * *m
	}
	s, err := schedulerBy(*sched, g, *scale)
	if err != nil {
		return err
	}
	c, err := schedule.Compile(g, s, schedule.Env{M: *m, B: *b}, *warm, *maxSource)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "compiled %s: prologue %d steps (%d firings), period %d steps (%d firings, %d source firings)\n",
		s.Name(), len(c.Prologue), schedule.Firings(c.Prologue),
		len(c.Period), schedule.Firings(c.Period), c.SourcePerPeriod)
	w := out
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := c.Write(w); err != nil {
		return err
	}
	if *output != "" {
		fmt.Fprintf(out, "wrote %s\n", *output)
	}
	return nil
}

func cmdExport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	name := fs.String("workload", "", "workload name")
	output := fs.String("o", "", "output file (default stdout)")
	scale := fs.Int64("scale", 128, "state scale in words")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}
	g, err := workloads.ByName(*name, *scale)
	if err != nil {
		return fmt.Errorf("%w\n%w", err, errUsage)
	}
	w := out
	if *output != "" {
		f, err := os.Create(*output)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return g.WriteJSON(w)
}

// parseSize parses an integer with an optional k/m suffix (base 1024),
// e.g. "64k", refusing one whose suffix takes it past int64. parseCapsFlag
// reads every capacity-list flag through it.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	ls := strings.ToLower(s)
	switch {
	case strings.HasSuffix(ls, "k"):
		mult, ls = 1024, ls[:len(ls)-1]
	case strings.HasSuffix(ls, "m"):
		mult, ls = 1024*1024, ls[:len(ls)-1]
	}
	v, err := strconv.ParseInt(ls, 10, 64)
	if err != nil {
		return 0, err
	}
	n, ok := ratio.AddMul(0, v, mult)
	if !ok {
		return 0, fmt.Errorf("%d times %d overflows int64", v, mult)
	}
	return n, nil
}
