//go:build linux

// Command bench is the repository's benchmark: it runs one pinned,
// sentinel-normalised workload against the built streamsched and
// streamschedd binaries, checks their outputs, and prints every metric by
// name with its unit. README.md in this directory is the reference.
//
// Usage (from the repository root):
//
//	bash bench/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//	bash bench/run.sh --selfcheck [--runs 5]
//	bash bench/run.sh --noise --workload <name>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain() error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", defaultSeconds, "nominal length of the timed section on the reference box; scales the fixed op count")
	trace := fs.Int("trace", 0, "1: traced run (per-layer metrics, spans, cross-checks); 0: end-to-end metrics")
	selfcheck := fs.Bool("selfcheck", false, "run two sets of runs of this tree and compare their medians against BENCHMARK.json's bounds")
	runs := fs.Int("runs", 5, "selfcheck: runs per workload in each of the two sets")
	spinCPU := fs.Int("spin", -1, "internal: be the noise injector on this CPU")
	noise := fs.Bool("noise", false, "run the workload with a duty-cycled spinner on its CPUs for the middle third, print raw vs normalised op_p50_ms, and fail if the normalised one leaves its bound")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	if *spinCPU >= 0 {
		return spin(*spinCPU)
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	if *selfcheck {
		return runSelfcheck(root, *runs, *seconds)
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	env, err := newEnv(root, w, *seed, *seconds, *trace != 0)
	if err != nil {
		return err
	}
	defer env.close()
	killDaemonOnSignal()
	if *noise {
		return runNoise(root, env, w)
	}
	var res *result
	if *trace != 0 {
		res, err = runTraced(env, w)
	} else {
		res, err = runEndToEnd(env, w, nil)
	}
	if err != nil {
		return err
	}
	res.print(os.Stdout)
	if err := res.save(filepath.Join(env.outDir, fmt.Sprintf("result-%s-seed%d.json", w.name, *seed))); err != nil {
		return err
	}
	// The contract's result line: last on standard output, these keys only.
	line, err := json.Marshal(res.Summary)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// findRoot locates the repository checkout: the directory holding
// BENCHMARK.json, which is the working directory under run.sh and its
// parent under `go run -C bench .`.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", fmt.Errorf("no BENCHMARK.json in . or ..: run from the repository root")
}
