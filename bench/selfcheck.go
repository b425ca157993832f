//go:build linux

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"streamsched/bench/kit"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runOnce runs one untraced benchmark run as its own process (each run
// pins itself) and returns its result line.
func runOnce(workload string, seed, seconds int) (*summary, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var s summary
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &s, nil
}

// loadBenchmarkFile reads BENCHMARK.json from the checkout's root.
func loadBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// runSelfcheck is the A/A test: two sets of runs runs of every workload
// of this one tree, workloads alternating, run r of both sets on seed r.
// It fails if any end-to-end metric's set medians differ by more than the
// metric's bound, if any run-to-run spread exceeds it (setup_s's spread
// excepted, as in the acceptance rule), or if any run was incorrect.
func runSelfcheck(root string, runs, seconds int) error {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	if runs < 2 {
		return fmt.Errorf("selfcheck needs at least 2 runs per set")
	}
	// values[workload][metric][set] = one value per run
	values := map[string]map[string]*[2][]float64{}
	bad := 0
	for set := range 2 {
		for run := 0; run < runs; run++ {
			for _, w := range bf.Workloads {
				s, err := runOnce(w.Name, run+1, seconds)
				if err != nil {
					return err
				}
				if !s.Correct || s.Failed != 0 {
					bad++
				}
				if values[w.Name] == nil {
					values[w.Name] = map[string]*[2][]float64{}
				}
				for name, m := range s.Metrics {
					if values[w.Name][name] == nil {
						values[w.Name][name] = new([2][]float64)
					}
					values[w.Name][name][set] = append(values[w.Name][name][set], m.Value)
				}
				fmt.Fprintf(os.Stderr, "set %d run %d %s: op_p50_ms %.3f\n", set+1, run+1, w.Name, s.Metrics["op_p50_ms"].Value)
			}
		}
	}
	fmt.Printf("A/A self-check: 2 sets x %d runs per workload, seeds 1..%d, --seconds %d\n\n", runs, runs, seconds)
	fmt.Println("| workload | metric | bound | set 1 median | q1 – q3 | spread | set 2 median | q1 – q3 | spread | median difference | verdict |")
	fmt.Println("| --- | --- | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | --- |")
	for _, w := range bf.Workloads {
		for _, m := range bf.EndToEnd {
			row := fmt.Sprintf("| %s | %s | %.0f%% | ", w.Name, m.Name, 100*m.Bound)
			sets := values[w.Name][m.Name]
			if sets == nil {
				return fmt.Errorf("%s: no run reported %s", w.Name, m.Name)
			}
			ok := true
			for _, vs := range sets {
				spread := kit.Spread(vs)
				q1, q3 := kit.Quartiles(vs)
				row += fmt.Sprintf("%.2f | %.2f – %.2f | %.1f%% | ", kit.Median(vs), q1, q3, 100*spread)
				if spread > m.Bound && m.Name != "setup_s" {
					ok = false
				}
			}
			// Every metric is lower-is-better: the second set may not
			// read worse than the first by more than the bound, nor the
			// first than the second.
			m1, m2 := kit.Median(sets[0]), kit.Median(sets[1])
			diff := max(m2/m1, m1/m2) - 1
			verdict := "ok"
			if diff > m.Bound || !ok {
				verdict = "OUT OF BOUND"
				bad++
			}
			fmt.Println(row + fmt.Sprintf("%.1f%% | %s |", 100*diff, verdict))
		}
	}
	if bad != 0 {
		return fmt.Errorf("selfcheck: %d metric(s) or run(s) out of bound or incorrect", bad)
	}
	return nil
}

// Spinner duty cycle: a third of the CPU, in bursts shorter than a
// sentinel reading. Bursts start on multiples of the period on the wall
// clock, so the spinners of a two-CPU set burst together: that is a host
// taking the guest's CPUs away. Were they out of step, the guest's
// scheduler would move the program's threads to whichever CPU is free —
// which the pinned sentinels cannot do, and which no noise from outside
// the guest allows.
const (
	spinOn     = 2 * time.Millisecond
	spinPeriod = 6 * time.Millisecond
)

// spin is the body of the hidden --spin mode: it takes the given CPU for
// the first spinOn of every spinPeriod until its parent is gone. It asks
// for real-time priority, so that during a burst nothing else runs on the
// CPU, and prints whether it got it. It is a process of its own because a
// spinning goroutine would share the driver's Ps with the sentinels, and
// a runtime timer needs an ordinary thread to run before it can fire:
// both made the spinner gentler on the sentinel than on the op, or
// harsher.
func spin(cpu int) error {
	runtime.LockOSThread()
	if err := kit.SetAffinity([]int{cpu}); err != nil {
		return err
	}
	fmt.Println(kit.SetRealtime() == nil)
	phase := func() time.Duration { return time.Duration(time.Now().UnixNano()) % spinPeriod }
	// A real-time spinner that outlived a killed driver would skew every
	// later run on its CPU: it stops by itself once it is an orphan.
	for parent := os.Getppid(); os.Getppid() == parent; {
		for phase() < spinOn {
		}
		rest := syscall.NsecToTimespec((spinPeriod - phase()).Nanoseconds())
		syscall.Nanosleep(&rest, nil)
	}
	return nil
}

// runNoise runs the workload with a spinner on each CPU of its set for
// the middle third of the timed ops and compares that third with the
// other two, raw and normalised. It fails if the normalised median of
// the noisy third leaves op_p50_ms's bound.
func runNoise(root string, env *benchEnv, w workloadDef) error {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		return err
	}
	var bound float64
	for _, m := range bf.EndToEnd {
		if m.Name == "op_p50_ms" {
			bound = m.Bound
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var spinners []*exec.Cmd
	stopSpinners := func() {
		for _, cmd := range spinners {
			cmd.Process.Kill()
			cmd.Wait()
		}
		spinners = nil
	}
	defer stopSpinners()
	realtime := true
	var startErr error
	started := false
	between := func(i, n int) {
		switch {
		case i == n/3 && !started:
			started = true
			for _, cpu := range env.cpus {
				cmd := exec.Command(exe, "--spin", fmt.Sprint(cpu))
				out, err := cmd.StdoutPipe()
				if err == nil {
					err = cmd.Start()
				}
				if err != nil {
					startErr = err
					return
				}
				spinners = append(spinners, cmd)
				var rt bool
				fmt.Fscan(out, &rt) // also waits until the spinner is on its CPU
				realtime = realtime && rt
			}
		case i == 2*n/3:
			stopSpinners()
		}
	}
	res, err := runEndToEnd(env, w, between)
	if err == nil {
		err = startErr
	}
	if err != nil {
		return err
	}
	norm, _, err := env.normalise(res.RawOpMS, res.Sentinels)
	if err != nil {
		return err
	}
	norm, raw := pick(norm, res.Timed), pick(res.RawOpMS, res.Timed)
	n := len(norm)
	outer := func(vs []float64) []float64 { return append(append([]float64(nil), vs[:n/3]...), vs[2*n/3:]...) }
	rawQuiet, rawNoisy := kit.Median(outer(raw)), kit.Median(raw[n/3:2*n/3])
	normQuiet, normNoisy := kit.Median(outer(norm)), kit.Median(norm[n/3:2*n/3])
	rawShift, normShift := rawNoisy/rawQuiet-1, normNoisy/normQuiet-1
	fmt.Printf("noise injection on %s: spinner (%v on of every %v, real-time priority %v) on CPUs %v during ops %d..%d of %d\n",
		w.name, spinOn, spinPeriod, realtime, env.cpus, n/3, 2*n/3-1, n)
	fmt.Printf("  raw        op_p50_ms: quiet thirds %.3f, noisy third %.3f (%+.1f%%)\n", rawQuiet, rawNoisy, 100*rawShift)
	fmt.Printf("  normalised op_p50_ms: quiet thirds %.3f, noisy third %.3f (%+.1f%%)\n", normQuiet, normNoisy, 100*normShift)
	if math.Abs(rawShift) <= bound {
		fmt.Printf("  raw stayed inside the %.0f%% bound: the spinner did not disturb this workload, and the run shows nothing\n", 100*bound)
	}
	if math.Abs(normShift) > bound {
		return fmt.Errorf("noise injection on %s: normalised op_p50_ms moved %+.1f%%, outside the %.0f%% bound", w.name, 100*normShift, 100*bound)
	}
	return nil
}
