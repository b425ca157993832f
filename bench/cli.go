//go:build linux

package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"

	"streamsched/bench/kit"
)

// cliVerb is one process of a CLI op: the arguments before the graph
// file and, after the run, the pointwise checks on its output.
type cliVerb struct {
	name string
	args []string
	// points lists the grid points of the verb's CSV that set-up
	// recomputes pointwise.
	points []gridPoint
}

// gridPoint ties one CSV cell to the cache geometry that produced it.
type gridPoint struct {
	row, col int
	capacity int64
	ways     int64 // 0: fully associative
	fifo     bool
}

// cliDriver runs a workload whose op is a sequence of streamsched
// processes on one generated graph.
type cliDriver struct {
	env       *benchEnv
	graphName string
	graph     string // path of the generated graph file
	warm      int64  // the ops' window, in source firings
	measure   int64
	verbs     []cliVerb
	want      [sha256.Size]byte // hash of the first op's outputs
	cpuS      float64
	opPeakKB  int64   // largest resident set among the current op's processes
	peaks     []int64 // each op's peak resident set, KB
	cpusSeen  map[string]string
}

// childEnv is the environment of every child: nothing inherited that
// could change the program's defaults (GOMAXPROCS, GOGC, GODEBUG), and
// temporary files under bench/out.
func childEnv(outDir string) []string {
	return []string{"PATH=" + os.Getenv("PATH"), "TMPDIR=" + filepath.Join(outDir, "tmp")}
}

// run executes one streamsched process and accounts its CPU and memory.
func (d *cliDriver) run(name string, args ...string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, d.env.bins.cli, args...)
	cmd.Env = childEnv(d.env.outDir)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	span := d.env.rec.child(name, "cli.process")
	defer d.env.rec.end(span)
	if err := cmd.Start(); err != nil {
		return "", err
	}
	if _, seen := d.cpusSeen[name]; !seen {
		// Read once per verb, during set-up: the kernel's word on where
		// the child may run, not ours.
		d.cpusSeen[name], _ = kit.ProcStatusField(strconv.Itoa(cmd.Process.Pid), "Cpus_allowed_list")
	}
	err := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		d.cpuS += float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
		d.opPeakKB = max(d.opPeakKB, ru.Maxrss)
	}
	if err != nil {
		return "", fmt.Errorf("streamsched %s: %v: %s", name, err, strings.TrimSpace(stderr.String()))
	}
	return stdout.String(), nil
}

// invoke runs one verb on the workload's graph and window; extra
// arguments go between the verb's own and the graph file.
func (d *cliDriver) invoke(verb string, args []string, extra ...string) (string, error) {
	all := append([]string{verb}, args...)
	all = append(all, "-warm", strconv.FormatInt(d.warm, 10), "-measure", strconv.FormatInt(d.measure, 10))
	return d.run(verb, append(append(all, extra...), d.graph)...)
}

// runOp runs every verb of the op and returns their outputs.
func (d *cliDriver) runOp() ([]string, error) {
	d.opPeakKB = 0
	defer func() { d.peaks = append(d.peaks, d.opPeakKB) }()
	outs := make([]string, len(d.verbs))
	for i, v := range d.verbs {
		out, err := d.invoke(v.name, v.args)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return outs, nil
}

func hashOutputs(outs []string) [sha256.Size]byte {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintf(h, "%d\n%s", len(o), o)
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func (d *cliDriver) setUp() error {
	g := kit.Generate(d.env.seed, d.graphName, 0)
	if g.MaxState() > kit.DesignM {
		return fmt.Errorf("generated state %d exceeds M=%d", g.MaxState(), kit.DesignM)
	}
	if err := os.WriteFile(d.graph, append(g.JSON(), '\n'), 0o644); err != nil {
		return err
	}
	// Warm-up op 1 also gives the reference output.
	outs, err := d.runOp()
	if err != nil {
		return err
	}
	d.want = hashOutputs(outs)
	d.env.lap()
	// The sequential profiling path must print the same bytes as the
	// default (sharded) one: the repo's contract.
	for i, v := range d.verbs {
		out, err := d.invoke(v.name, v.args, "-profilejobs", "1", "-decodejobs", "1")
		if err != nil {
			return err
		}
		if out != outs[i] {
			return fmt.Errorf("%s: -profilejobs 1 -decodejobs 1 prints different bytes than the defaults", v.name)
		}
	}
	d.env.lap()
	// Pointwise oracle: every listed grid point recomputed by the
	// `simulate` verb, which replays the schedule against one concrete
	// cache and shares no code with the one-pass profilers. (ISSUE 14
	// asked for six seed-chosen points; a point costs 8 ms, so all of
	// them are checked and set-up is the same work for every seed.)
	for vi, v := range d.verbs {
		if len(v.points) == 0 {
			continue
		}
		_, rows, err := kit.ParseCSV(outs[vi])
		if err != nil {
			return fmt.Errorf("%s: %w", v.name, err)
		}
		for i, p := range v.points {
			if i%10 == 9 {
				d.env.lap()
			}
			policy := "lru"
			if p.fifo {
				policy = "fifo"
			}
			out, err := d.invoke("simulate", []string{"-M", strconv.Itoa(kit.DesignM), "-B", strconv.Itoa(kit.BlockB),
				"-sched", "partitioned", "-cache", strconv.FormatInt(p.capacity, 10),
				"-ways", strconv.FormatInt(p.ways, 10), "-policy", policy})
			if err != nil {
				return err
			}
			misses, items, err := kit.ParseSimulate(out)
			if err != nil {
				return err
			}
			cell, err := kit.Cell(rows, p.row, p.col)
			if err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
			if want := kit.PerItem(misses, items); cell != want {
				return fmt.Errorf("%s row %d: one-pass says %s misses/item, pointwise simulate says %s (cache %d, ways %d, %s)",
					v.name, p.row, cell, want, p.capacity, p.ways, policy)
			}
		}
	}
	for i := 1; i < warmupOps; i++ {
		d.env.lap()
		if err := d.op(-i); err != nil {
			return err
		}
	}
	return nil
}

func (d *cliDriver) tearDown() error { return nil }

// op runs one op; its outputs must be byte-identical to the first op's.
func (d *cliDriver) op(int) error {
	outs, err := d.runOp()
	if err != nil {
		return err
	}
	if hashOutputs(outs) != d.want {
		return fmt.Errorf("output differs from the first op's for the same input")
	}
	return nil
}

func (d *cliDriver) probeInputs(n int) probeInputs {
	in := probeInputs{warm: d.warm, measure: d.measure, daemonMeasure: kit.DaemonMeasure}
	for i := 0; i < n; i++ {
		in.graphs = append(in.graphs, kit.Generate(d.env.seed, d.graphName, i))
	}
	return in
}

func (d *cliDriver) usage() (float64, error)                   { return d.cpuS, nil }
func (d *cliDriver) opPeaksKB() []int64                        { return d.peaks }
func (d *cliDriver) verify() ([]string, map[string]kit.Metric) { return nil, nil }
func (d *cliDriver) childCPUs() map[string]string              { return d.cpusSeen }

func joinInts(vs []int64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatInt(v, 10)
	}
	return strings.Join(parts, ",")
}

func waysFlag(ws []int64) string {
	return strings.ReplaceAll(","+joinInts(ws), ",0", ",full")[1:]
}

func newCLIDriver(env *benchEnv, name string, warm, measure int64) *cliDriver {
	return &cliDriver{
		env:       env,
		graphName: fmt.Sprintf("%s-seed%d", name, env.seed),
		graph:     filepath.Join(env.runDir, "graph.json"),
		warm:      warm,
		measure:   measure,
		cpusSeen:  map[string]string{},
	}
}

// newOrgsGrid: one `misscurve` over 5 capacities x 5 associativities x
// both policies. The CSV is one table, ways outermost, then policy, then
// capacity; the value is column 2.
func newOrgsGrid(env *benchEnv) driver {
	d := newCLIDriver(env, "orgs-grid", kit.GridWarm, kit.GridMeasure)
	v := cliVerb{name: "misscurve", args: []string{
		"-M", strconv.Itoa(kit.DesignM), "-B", strconv.Itoa(kit.BlockB), "-sched", "partitioned",
		"-caps", joinInts(kit.OrgCaps), "-ways", waysFlag(kit.OrgWays), "-policy", "both", "-csv"}}
	row := 0
	for _, w := range kit.OrgWays {
		for _, fifo := range []bool{false, true} {
			for _, c := range kit.OrgCaps {
				v.points = append(v.points, gridPoint{row: row, col: 2, capacity: c, ways: w, fifo: fifo})
				row++
			}
		}
	}
	d.verbs = []cliVerb{v}
	return d
}

// newHierShared: one `hier` (3 L1 capacities x 3 L1 ways x 4 L2
// capacities x 3 L2 ways) followed by one `shared -P 4` (3 x 2 x 4 x 2)
// on the same graph; the pair is the op. The oracle checks hier's L1
// column (3): rows run L1 capacity, L1 ways, then the twelve L2 points.
// shared's L1 column sums four private caches, which `simulate` cannot
// reproduce; the traced run holds those against the naive simulator.
func newHierShared(env *benchEnv) driver {
	d := newCLIDriver(env, "hier-shared", kit.GridWarm, kit.GridMeasure)
	common := []string{"-M", strconv.Itoa(kit.DesignM), "-B", strconv.Itoa(kit.BlockB),
		"-l1caps", joinInts(kit.HierL1Caps), "-l2caps", joinInts(kit.HierL2Caps), "-csv"}
	hier := cliVerb{name: "hier", args: append([]string{"-sched", "partitioned",
		"-l1ways", waysFlag(kit.HierL1Ways), "-l2ways", waysFlag(kit.HierL2Ways)}, common...)}
	l2points := len(kit.HierL2Caps) * len(kit.HierL2Ways)
	row := 0
	for _, c := range kit.HierL1Caps {
		for _, w := range kit.HierL1Ways {
			hier.points = append(hier.points, gridPoint{row: row, col: 3, capacity: c, ways: w})
			row += l2points
		}
	}
	shared := cliVerb{name: "shared", args: append([]string{"-P", strconv.Itoa(kit.SharedProcs),
		"-l1ways", waysFlag(kit.SharedL1Ways), "-l2ways", waysFlag(kit.SharedL2Ways)}, common...)}
	d.verbs = []cliVerb{hier, shared}
	return d
}
