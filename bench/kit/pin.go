//go:build linux

// Package kit is the benchmark's own toolbox: CPU pinning, the sentinel
// kernel and its normalisation arithmetic, quantiles, spans, the seeded
// input generator, the output parsers and the naive reference cache
// simulator. It imports nothing from the streamsched module, so it keeps
// compiling whatever happens to the engine's API.
package kit

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"unsafe"
)

// cpuMaskWords sizes the affinity mask: 1024 CPUs, the kernel's default
// CONFIG_NR_CPUS ceiling on the boxes this runs on.
const cpuMaskWords = 16

// Affinity returns the CPUs the calling thread may run on, ascending.
func Affinity() ([]int, error) {
	var mask [cpuMaskWords]uint64
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return nil, fmt.Errorf("sched_getaffinity: %w", errno)
	}
	var cpus []int
	for w, bits := range mask {
		for b := 0; b < 64; b++ {
			if bits&(1<<b) != 0 {
				cpus = append(cpus, w*64+b)
			}
		}
	}
	return cpus, nil
}

// SetAffinity restricts the calling OS thread to cpus. Threads and
// processes the thread creates afterwards inherit the mask.
func SetAffinity(cpus []int) error {
	var mask [cpuMaskWords]uint64
	for _, c := range cpus {
		if c < 0 || c >= cpuMaskWords*64 {
			return fmt.Errorf("cpu %d out of range", c)
		}
		mask[c/64] |= 1 << (c % 64)
	}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0,
		unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask[0])))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity %v: %w", cpus, errno)
	}
	return nil
}

// SetRealtime gives the calling OS thread the lowest real-time (FIFO)
// priority: it then runs whenever it wants to, ahead of every ordinary
// thread on its CPU. Needs CAP_SYS_NICE.
func SetRealtime() error {
	const schedFIFO = 1
	param := struct{ priority int32 }{1}
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedFIFO, uintptr(unsafe.Pointer(&param)))
	if errno != 0 {
		return fmt.Errorf("sched_setscheduler: %w", errno)
	}
	return nil
}

// ThreadCPUMS returns the CPU time the calling OS thread has been given
// so far, in milliseconds: time it spent runnable but not running is not
// in it.
func ThreadCPUMS() float64 {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// Cannot fail: the clock exists on every Linux and ts is writable.
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Nano()) / 1e6
}

// pinnedEnv marks a process that already re-executed itself under its
// CPU set.
const pinnedEnv = "STREAMSCHED_BENCH_CPUS"

// PinProcess confines the whole process to the first want CPUs it is
// allowed on and returns the set; a shorter set means the host offered
// fewer CPUs than wanted. A Go process cannot move its existing runtime
// threads, so the first call narrows the calling thread and re-executes
// the binary: every thread of the new image — and NumCPU, hence
// GOMAXPROCS — then sees only the set.
func PinProcess(want int) ([]int, error) {
	allowed, err := Affinity()
	if err != nil {
		return nil, err
	}
	if os.Getenv(pinnedEnv) != "" {
		return allowed, nil
	}
	if len(allowed) == 0 {
		return nil, fmt.Errorf("empty affinity mask")
	}
	cpus := allowed
	if len(cpus) > want {
		cpus = cpus[:want]
	}
	runtime.LockOSThread()
	if err := SetAffinity(cpus); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	env := append(os.Environ(), pinnedEnv+"=1")
	return nil, syscall.Exec(exe, os.Args, env)
}

// ProcStatusField reads one "Key:\tvalue" field of /proc/<pid>/status
// ("self" for the caller), e.g. Cpus_allowed_list or VmHWM.
func ProcStatusField(pid, key string) (string, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return "", err
	}
	return StatusField(string(data), key)
}

// StatusField extracts one field from the text of a /proc status file.
func StatusField(status, key string) (string, error) {
	for _, line := range strings.Split(status, "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			return strings.TrimSpace(v), nil
		}
	}
	return "", fmt.Errorf("no %s in status", key)
}

// ProcCPUSeconds parses utime+stime (fields 14 and 15, in clock ticks of
// 1/100 s — the value of CLK_TCK on every Linux ABI Go supports) from the
// text of /proc/<pid>/stat. The command name may contain spaces, so
// fields are counted from the closing parenthesis.
func ProcCPUSeconds(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad utime/stime in stat line")
	}
	return float64(ut+st) / 100, nil
}

// StolenMS parses, from the text of /proc/stat, the time the hypervisor
// has run something else while a CPU of cpus had work to do (the "steal"
// column, in clock ticks of 1/100 s), summed over cpus, in milliseconds.
// A host that does not report steal time reads 0 throughout.
func StolenMS(stat string, cpus []int) (float64, error) {
	var ticks int64
	found := 0
	for _, line := range strings.Split(stat, "\n") {
		f := strings.Fields(line)
		if len(f) < 9 || !strings.HasPrefix(f[0], "cpu") {
			continue
		}
		n, err := strconv.Atoi(f[0][3:])
		if err != nil {
			continue // the "cpu" total line
		}
		for _, c := range cpus {
			if c == n {
				t, err := strconv.ParseInt(f[8], 10, 64)
				if err != nil {
					return 0, fmt.Errorf("bad steal column in %q", line)
				}
				ticks += t
				found++
			}
		}
	}
	if found != len(cpus) {
		return 0, fmt.Errorf("/proc/stat lists %d of CPUs %v", found, cpus)
	}
	return float64(ticks) * 10, nil
}
