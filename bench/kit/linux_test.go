//go:build linux

package kit

import "testing"

func TestSentinelIsFrozen(t *testing.T) {
	s := NewSentinel()
	if got := s.Run(); got != SentinelChecksum {
		t.Fatalf("sentinel checksum %d, want %d: the kernel was edited, and every normalised number moved with it", got, SentinelChecksum)
	}
	if got := s.Run(); got != SentinelChecksum {
		t.Fatalf("second run's checksum %d: Run does not reset its state", got)
	}
}

func TestProcParsers(t *testing.T) {
	status := "Name:\tstreamschedd\nVmHWM:\t   14432 kB\nCpus_allowed_list:\t0-1\n"
	if v, err := StatusField(status, "VmHWM"); err != nil || v != "14432 kB" {
		t.Errorf("VmHWM = %q, %v", v, err)
	}
	if v, err := StatusField(status, "Cpus_allowed_list"); err != nil || v != "0-1" {
		t.Errorf("Cpus_allowed_list = %q, %v", v, err)
	}
	if _, err := StatusField(status, "VmPeak"); err == nil {
		t.Error("StatusField found a field that is not there")
	}
	// The command name holds a space and a parenthesis; utime 250, stime 50.
	stat := "4242 (stream sched) d) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 5 0 1000 0 0"
	if s, err := ProcCPUSeconds(stat); err != nil || s != 3 {
		t.Errorf("ProcCPUSeconds = %v, %v; want 3", s, err)
	}
	if _, err := ProcCPUSeconds("no parenthesis"); err == nil {
		t.Error("ProcCPUSeconds accepted a malformed line")
	}
	// Steal is the eighth column after the name, in ticks of 10 ms.
	procStat := "cpu  9 0 8 7 6 0 5 700 0 0\ncpu0 5 0 4 3 2 0 1 300 0 0\ncpu1 4 0 4 4 4 0 4 400 0 0\nintr 1 2 3\n"
	if ms, err := StolenMS(procStat, []int{0}); err != nil || ms != 3000 {
		t.Errorf("StolenMS(cpu0) = %v, %v; want 3000", ms, err)
	}
	if ms, err := StolenMS(procStat, []int{0, 1}); err != nil || ms != 7000 {
		t.Errorf("StolenMS(cpu0, cpu1) = %v, %v; want 7000", ms, err)
	}
	if _, err := StolenMS(procStat, []int{2}); err == nil {
		t.Error("StolenMS found a CPU that is not listed")
	}
}
