package main

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"streamsched/internal/schedule"
	"streamsched/internal/sdf"
)

// writeGraph exports a workload to a temp file and returns its path.
func writeGraph(t *testing.T, workload string, scale int64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), workload+".json")
	var sb strings.Builder
	if err := run([]string{"export", "-workload", workload, "-scale", strconv.FormatInt(scale, 10)}, &sb); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUsageErrors(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); !errors.Is(err, errUsage) {
		t.Errorf("empty args: %v", err)
	}
	if err := run([]string{"bogus"}, &sb); !errors.Is(err, errUsage) {
		t.Errorf("bogus cmd: %v", err)
	}
	if err := run([]string{"help"}, &sb); err != nil {
		t.Errorf("help: %v", err)
	}
	if !strings.Contains(sb.String(), "usage") {
		t.Error("help output missing usage")
	}
}

func TestInfoCommand(t *testing.T) {
	path := writeGraph(t, "des", 64)
	var sb strings.Builder
	if err := run([]string{"info", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"pipeline", "round0", "channels", "minBuf"} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q", want)
		}
	}
	if err := run([]string{"info", "/nonexistent.json"}, &sb); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"info"}, &sb); !errors.Is(err, errUsage) {
		t.Errorf("no file: %v", err)
	}
}

func TestPartitionCommand(t *testing.T) {
	path := writeGraph(t, "des", 128)
	dot := filepath.Join(t.TempDir(), "p.dot")
	var sb strings.Builder
	if err := run([]string{"partition", "-M", "256", "-algo", "dp", "-dot", dot, path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "components") {
		t.Errorf("partition output: %s", sb.String())
	}
	data, err := os.ReadFile(dot)
	if err != nil || !strings.Contains(string(data), "digraph") {
		t.Errorf("dot output: %v", err)
	}
	if err := run([]string{"partition", path}, &sb); err == nil {
		t.Error("missing -M accepted")
	}
	if err := run([]string{"partition", "-M", "256", "-algo", "nope", path}, &sb); err == nil {
		t.Error("bad algo accepted")
	}
}

func TestPartitionAlgos(t *testing.T) {
	path := writeGraph(t, "fmradio", 32)
	for _, algo := range []string{"auto", "interval", "agglomerative"} {
		var sb strings.Builder
		if err := run([]string{"partition", "-M", "128", "-algo", algo, path}, &sb); err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
	// theorem5/dp require pipelines.
	var sb strings.Builder
	if err := run([]string{"partition", "-M", "128", "-algo", "theorem5", path}, &sb); err == nil {
		t.Error("theorem5 accepted a dag")
	}
}

func TestSimulateCommand(t *testing.T) {
	path := writeGraph(t, "des", 128)
	for _, sched := range []string{"flat", "scaled", "demand", "kohli", "partitioned"} {
		var sb strings.Builder
		err := run([]string{"simulate", "-M", "256", "-B", "16", "-sched", sched,
			"-warm", "128", "-measure", "256", path}, &sb)
		if err != nil {
			t.Errorf("%s: %v", sched, err)
			continue
		}
		if !strings.Contains(sb.String(), "misses:") {
			t.Errorf("%s output missing misses", sched)
		}
	}
	var sb strings.Builder
	if err := run([]string{"simulate", path}, &sb); err == nil {
		t.Error("missing -M accepted")
	}
	// An unknown name is a usage error, worded as before the registry moved
	// to internal/schedule.
	err := run([]string{"simulate", "-M", "256", "-sched", "nope", path}, &sb)
	if !errors.Is(err, errUsage) || !strings.HasPrefix(err.Error(), "unknown scheduler \"nope\"\nusage:") {
		t.Errorf("bad scheduler: %v", err)
	}
	err = run([]string{"simulate", "-M", "256", "-policy", "mru", path}, &sb)
	if !errors.Is(err, errUsage) || !strings.HasPrefix(err.Error(), "simulate: bad -policy \"mru\" (want lru or fifo)\nusage:") {
		t.Errorf("bad policy: %v", err)
	}
}

func TestBoundCommand(t *testing.T) {
	path := writeGraph(t, "des", 128)
	var sb strings.Builder
	if err := run([]string{"bound", "-M", "256", "-B", "16", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "lower bound (exact)") {
		t.Errorf("bound output: %s", sb.String())
	}
	// A dag goes through the exact or heuristic path depending on size;
	// either way a bound is reported.
	fm := writeGraph(t, "fmradio", 16)
	sb.Reset()
	if err := run([]string{"bound", "-M", "64", "-B", "16", fm}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "lower bound") {
		t.Errorf("dag bound output: %s", sb.String())
	}
	if err := run([]string{"bound", path}, &sb); err == nil {
		t.Error("missing -M accepted")
	}
}

func TestExportAllWorkloads(t *testing.T) {
	for _, w := range []string{"fmradio", "filterbank", "beamformer", "fft", "bitonic", "des", "mp3"} {
		var sb strings.Builder
		if err := run([]string{"export", "-workload", w, "-scale", "32"}, &sb); err != nil {
			t.Errorf("%s: %v", w, err)
			continue
		}
		if !strings.Contains(sb.String(), "\"edges\"") {
			t.Errorf("%s export missing edges", w)
		}
	}
	var sb strings.Builder
	if err := run([]string{"export", "-workload", "nope"}, &sb); err == nil {
		t.Error("bad workload accepted")
	}
	// Export to file.
	path := filepath.Join(t.TempDir(), "g.json")
	if err := run([]string{"export", "-workload", "des", "-o", path}, &sb); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Error("export -o did not create file")
	}
}

func TestBuffersCommand(t *testing.T) {
	path := writeGraph(t, "mp3", 128)
	var sb strings.Builder
	if err := run([]string{"buffers", "-M", "512", "-probe", "1024", path}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"buffer utilization", "cross", "total buffer words"} {
		if !strings.Contains(out, want) {
			t.Errorf("buffers output missing %q:\n%s", want, out)
		}
	}
	if err := run([]string{"buffers", path}, &sb); err == nil {
		t.Error("missing -M accepted")
	}
	if err := run([]string{"buffers", "-M", "512", "-sched", "nope", path}, &sb); err == nil {
		t.Error("bad scheduler accepted")
	}
}

func TestCompileCommand(t *testing.T) {
	path := writeGraph(t, "des", 128)
	outFile := filepath.Join(t.TempDir(), "sched.txt")
	var sb strings.Builder
	if err := run([]string{"compile", "-M", "512", "-o", outFile, path}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "period") {
		t.Errorf("compile output: %s", sb.String())
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := sdf.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	// The verb's defaults: the partitioned scheduler, warm 8M, max 1024M.
	c, err := schedule.Compile(g, schedule.Partitioned(g, nil), schedule.Env{M: 512, B: 16}, 8*512, 1024*512)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := c.Write(&want); err != nil {
		t.Fatal(err)
	}
	if string(data) != want.String() {
		t.Errorf("compiled file differs from Compile(...).Write:\n%s\nwant:\n%s", data, want.String())
	}
	if err := run([]string{"compile", path}, &sb); err == nil {
		t.Error("missing -M accepted")
	}
}

func TestParseSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
	}{
		{"64", 64}, {"4k", 4096}, {"2K", 2048}, {"1m", 1 << 20}, {"1M", 1 << 20},
	}
	for _, c := range cases {
		got, err := parseSize(c.in)
		if err != nil || got != c.want {
			t.Errorf("parseSize(%q) = %d, %v", c.in, got, err)
		}
	}
	if _, err := parseSize("x"); err == nil {
		t.Error("parseSize(x) accepted")
	}
}

func TestMissCurveCommand(t *testing.T) {
	path := writeGraph(t, "fmradio", 64)
	var sb strings.Builder
	err := run([]string{"misscurve", "-M", "256", "-B", "16", "-warm", "64", "-measure", "256", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"flat-topo", "kohli-greedy", "partitioned", "working set"} {
		if !strings.Contains(out, want) {
			t.Errorf("misscurve output missing %q:\n%s", want, out)
		}
	}
	// Explicit capacity grid with size suffixes, CSV output.
	sb.Reset()
	err = run([]string{"misscurve", "-M", "256", "-sched", "flat", "-caps", "256,1k,4k",
		"-warm", "64", "-measure", "256", "-csv", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 4 { // header + 3 capacities
		t.Fatalf("csv lines = %d, want 4:\n%s", len(lines), sb.String())
	}
	if !strings.HasPrefix(lines[1], "256,") || !strings.HasPrefix(lines[2], "1024,") || !strings.HasPrefix(lines[3], "4096,") {
		t.Errorf("csv capacities wrong:\n%s", sb.String())
	}
	// Misses/item must not increase as capacity grows.
	prev := -1.0
	for i, ln := range lines[1:] {
		f, err := strconv.ParseFloat(strings.Split(ln, ",")[1], 64)
		if err != nil {
			t.Fatalf("csv line %d: %v", i+1, err)
		}
		if prev >= 0 && f > prev {
			t.Errorf("misses/item increased with capacity: %v", lines)
		}
		prev = f
	}
	if err := run([]string{"misscurve", path}, &sb); err == nil {
		t.Error("missing -M accepted")
	}
	if err := run([]string{"misscurve", "-M", "256", "-caps", "7", path}, &sb); err == nil {
		t.Error("capacity below block size accepted")
	}
}

func TestMissCurveOrganisations(t *testing.T) {
	path := writeGraph(t, "fmradio", 64)
	var sb strings.Builder
	err := run([]string{"misscurve", "-M", "256", "-B", "16", "-sched", "flat",
		"-caps", "256,1k", "-ways", "1,4,full", "-policy", "both",
		"-warm", "64", "-measure", "256", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// One table per (policy, ways) combination.
	for _, want := range []string{
		"LRU direct-mapped", "FIFO direct-mapped",
		"LRU 4-way", "FIFO 4-way",
		"LRU fully-associative", "FIFO fully-associative",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("misscurve org output missing %q:\n%s", want, out)
		}
	}
	// CSV mode folds the organisation tables into one table with an
	// organisation column, so rows stay attributable.
	sb.Reset()
	err = run([]string{"misscurve", "-M", "256", "-B", "16", "-sched", "flat",
		"-caps", "256,1k", "-ways", "1,4", "-policy", "both",
		"-warm", "64", "-measure", "256", "-csv", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(csvLines) != 9 { // header + 2 ways x 2 policies x 2 caps
		t.Fatalf("org csv lines = %d, want 9:\n%s", len(csvLines), sb.String())
	}
	if !strings.HasPrefix(csvLines[0], "organisation,capacity,") {
		t.Errorf("org csv header missing organisation column: %s", csvLines[0])
	}
	for _, want := range []string{"LRU direct-mapped,256", "FIFO 4-way,1024"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("org csv missing row %q:\n%s", want, sb.String())
		}
	}
	checkJobsFlagsIgnored(t, []string{"misscurve", "-M", "256", "-sched", "flat", "-caps", "256,1k", "-ways", "1,4",
		"-policy", "both", "-warm", "64", "-measure", "256", "-csv"}, path)
	// Organisation sweeps need an explicit capacity grid.
	if err := run([]string{"misscurve", "-M", "256", "-ways", "4", path}, &sb); err == nil {
		t.Error("org sweep without -caps accepted")
	}
	// 24 lines / 5 ways is not a valid geometry.
	if err := run([]string{"misscurve", "-M", "256", "-caps", "384", "-ways", "5", path}, &sb); err == nil {
		t.Error("non-divisible ways accepted")
	}
	if err := run([]string{"misscurve", "-M", "256", "-caps", "256", "-ways", "nope", path}, &sb); err == nil {
		t.Error("bad -ways accepted")
	}
	if err := run([]string{"misscurve", "-M", "256", "-caps", "256", "-policy", "mru", path}, &sb); err == nil {
		t.Error("bad -policy accepted")
	}
}

// TestMissCurveGeometryValidation pins the pre-sweep geometry check: an
// associativity that does not divide a capacity's line count must fail
// before any trace is recorded, with a message naming the offending flag
// values (not a deep SetsFor error).
func TestMissCurveGeometryValidation(t *testing.T) {
	path := writeGraph(t, "fmradio", 64)
	var sb strings.Builder
	// 384 words / 16 = 24 lines; 5 ways does not divide 24.
	err := run([]string{"misscurve", "-M", "256", "-B", "16", "-caps", "384", "-ways", "5", path}, &sb)
	if err == nil {
		t.Fatal("non-divisible -ways accepted")
	}
	for _, want := range []string{"-ways 5", "24 cache lines", "capacity 384"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	// 7 ways exceed the single line of a block-sized capacity.
	err = run([]string{"misscurve", "-M", "256", "-B", "16", "-caps", "16", "-ways", "7", path}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-ways 7 exceeds") {
		t.Errorf("oversized ways error = %v", err)
	}
}

func TestHierCommand(t *testing.T) {
	path := writeGraph(t, "fmradio", 64)
	var sb strings.Builder
	err := run([]string{"hier", "-M", "256", "-B", "16",
		"-l1caps", "256,512", "-l1ways", "4,full",
		"-l2caps", "4k", "-l2block", "64", "-l2policy", "fifo",
		"-warm", "64", "-measure", "256", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"hierarchy misses/item", "non-inclusive",
		"L1miss/item", "L2miss/item", "AMAT",
		"256w/B16 4-way LRU", "512w/B16 FA LRU", "4096w/B64 FA FIFO",
		"flat-topo", "partitioned",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("hier output missing %q:\n%s", want, out)
		}
	}

	// CSV mode keeps the level columns.
	sb.Reset()
	err = run([]string{"hier", "-M", "256", "-sched", "flat",
		"-l1caps", "256", "-l2caps", "1k",
		"-warm", "64", "-measure", "256", "-csv", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(csvLines) != 2 { // header + 1 scheduler x 1 L1 x 1 L2
		t.Fatalf("hier csv lines = %d, want 2:\n%s", len(csvLines), sb.String())
	}
	if !strings.HasPrefix(csvLines[0], "scheduler,L1,L2,") {
		t.Errorf("hier csv header missing level columns: %s", csvLines[0])
	}

	checkJobsFlagsIgnored(t, []string{"hier", "-M", "256", "-sched", "flat", "-l1caps", "256,512", "-l2caps", "1k,4k",
		"-warm", "64", "-measure", "256", "-csv"}, path)

	// Flag validation: missing grids, bad geometry, bad cost model.
	for _, args := range [][]string{
		{"hier", "-M", "256", "-l2caps", "1k", path},                                     // no -l1caps
		{"hier", "-M", "256", "-l1caps", "256", path},                                    // no -l2caps
		{"hier", "-l1caps", "256", "-l2caps", "1k", path},                                // no -M
		{"hier", "-M", "256", "-l1caps", "384", "-l1ways", "5", "-l2caps", "1k", path},   // bad L1 geometry
		{"hier", "-M", "256", "-l1caps", "256", "-l2caps", "1k", "-l2block", "24", path}, // misaligned L2 block
		{"hier", "-M", "256", "-l1caps", "256", "-l2caps", "1k", "-l1policy", "mru", path},
		{"hier", "-M", "256", "-l1caps", "256", "-l2caps", "1k", "-amat", "1,2", path},
	} {
		if err := run(args, &sb); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	// The L2 geometry error names the L2 flags.
	err = run([]string{"hier", "-M", "256", "-l1caps", "256",
		"-l2caps", "1152", "-l2block", "64", "-l2ways", "5", path}, &sb)
	if err == nil || !strings.Contains(err.Error(), "-l2ways 5") {
		t.Errorf("L2 geometry error = %v", err)
	}
}

// checkJobsFlagsIgnored pins the deprecated -profilejobs/-decodejobs: a
// verb given both prints the CSV bytes it prints at defaults, and its -v
// summary names no shard worker.
func checkJobsFlagsIgnored(t *testing.T, args []string, path string) {
	t.Helper()
	var want, got strings.Builder
	if err := run(append(append([]string{}, args...), path), &want); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, args...), "-profilejobs", "4", "-decodejobs", "4", "-v", path), &got); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(got.String(), want.String()) {
		t.Errorf("%s -profilejobs 4 -decodejobs 4 prints different CSV bytes:\n%s\nwant:\n%s", args[0], got.String(), want.String())
	}
	if strings.Contains(got.String(), "shard worker") {
		t.Errorf("%s -v reports shard workers:\n%s", args[0], got.String())
	}
}

func TestSharedCommand(t *testing.T) {
	path := writeGraph(t, "fmradio", 64)
	var sb strings.Builder
	err := run([]string{"shared", "-M", "256", "-B", "16", "-P", "2",
		"-l1caps", "256,512", "-l2caps", "4k", "-l2block", "64", "-l2ways", "4",
		"-warm", "64", "-measure", "256", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"shared-L2 hierarchy misses/item", "P=2",
		"L1miss/item", "L2miss/item", "AMAT",
		"256w/B16 FA LRU", "512w/B16 FA LRU", "4096w/B64 4-way LRU",
		"per-processor breakdown", "makespan",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("shared output missing %q:\n%s", want, out)
		}
	}

	// Singleton partition + explicit homogeneous rule, CSV mode.
	sb.Reset()
	err = run([]string{"shared", "-M", "256", "-P", "2", "-rule", "homogeneous",
		"-algo", "singleton", "-l1caps", "256", "-l2caps", "1k",
		"-warm", "64", "-measure", "256", "-csv", path}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	csvLines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(csvLines) != 2 { // header + 1 L1 x 1 L2
		t.Fatalf("shared csv lines = %d, want 2:\n%s", len(csvLines), sb.String())
	}

	checkJobsFlagsIgnored(t, []string{"shared", "-M", "256", "-P", "2", "-l1caps", "256,512", "-l2caps", "1k,4k",
		"-warm", "64", "-measure", "256", "-csv"}, path)

	// Flag validation: missing grids, bad P/rule, bad geometry.
	for _, args := range [][]string{
		{"shared", "-M", "256", "-l2caps", "1k", path},                                 // no -l1caps
		{"shared", "-M", "256", "-l1caps", "256", path},                                // no -l2caps
		{"shared", "-l1caps", "256", "-l2caps", "1k", path},                            // no -M
		{"shared", "-M", "256", "-P", "0", "-l1caps", "256", "-l2caps", "1k", path},    // bad P
		{"shared", "-M", "256", "-rule", "x", "-l1caps", "256", "-l2caps", "1k", path}, // bad rule
		{"shared", "-M", "256", "-l1caps", "384", "-l1ways", "5", "-l2caps", "1k", path},
		{"shared", "-M", "256", "-l1caps", "256", "-l2caps", "1k", "-l2block", "24", path},
		{"shared", "-M", "256", "-l1caps", "256", "-l2caps", "1k", "-amat", "1,2", path},
	} {
		if err := run(args, &sb); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
