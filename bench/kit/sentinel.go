//go:build linux

package kit

import (
	"fmt"
	"runtime"
	"time"
)

// The sentinel is a frozen kernel of the engine's kind of work. It is the
// benchmark's ruler for the host: it runs on every CPU of the workload's
// set immediately before and after each op, and an op's time is scaled
// by what its adjacent readings say the host did (NormFactor). The
// kernel must stay matched to the engine (set-indexed move-to-front
// stacks, a map insert/delete ring, Fenwick updates over a few MB): a
// 256 KB pointer chase did not track the engine's slow phases. Changing
// anything below — the constants, the loop, the input — changes every
// normalised number, so it is frozen with the benchmark; a unit test pins
// its checksum and NewSentinels refuses to start on any other.
//
// It is a ruler, not a perfect one: when the host slows down, no program
// slows exactly as the kernel does. Across runs whose sentinel medians
// spanned 11-19 ms the CLI ops' times moved with the 0.7th power of the
// sentinel's (it leans harder on memory than they do, and the sharded
// pipeline waits part of the time), daemon-cold's with the 0.85th and
// daemon-warm's in proportion. Each workload is therefore normalised with
// its own calibrated exponent (NormFactor); the kernel itself stays as
// it is.
const (
	sentSets     = 1024
	sentWays     = 16
	sentUniverse = 1 << 15 // distinct blocks: about half the touches hit a stack
	sentRing     = 4096    // live map entries
	sentFenwick  = 1 << 20 // int32 cells: 4 MB
	sentIters    = 100000

	// SentinelNominalMS is the kernel's quiet time on the reference box
	// (2-vCPU KVM Xeon 2.1 GHz, Go 1.24): a timed pass read 10.4-10.7 ms
	// there whenever the host was quiet. It anchors normalised
	// milliseconds to raw milliseconds on that box; on any other host
	// normalised times read as "what the reference box would have taken".
	SentinelNominalMS = 10.5

	// SentinelChecksum is Run's result; any other value means the kernel
	// was edited and every normalised number moved with it.
	SentinelChecksum = 2494153641
)

// Sentinel holds one CPU's kernel state. Run resets it, so every call
// does identical work.
type Sentinel struct {
	stacks []int64
	ring   []int64
	live   map[int64]int32
	fen    []int32
}

// NewSentinel allocates the kernel's few MB once.
func NewSentinel() *Sentinel {
	return &Sentinel{
		stacks: make([]int64, sentSets*sentWays),
		ring:   make([]int64, sentRing),
		live:   make(map[int64]int32, 2*sentRing),
		fen:    make([]int32, sentFenwick+1),
	}
}

// Run executes the kernel once and returns its checksum.
func (s *Sentinel) Run() uint64 {
	for i := range s.stacks {
		s.stacks[i] = -1
	}
	for i := range s.ring {
		s.ring[i] = -1
	}
	clear(s.live)
	clear(s.fen)
	var sum uint64
	x := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < sentIters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		blk := int64((x >> 33) % sentUniverse)

		// Per-set move-to-front stack: the depth found is the reuse
		// distance within the set.
		st := s.stacks[(blk%sentSets)*sentWays:][:sentWays]
		d := 0
		for d < sentWays-1 && st[d] != blk {
			d++
		}
		copy(st[1:d+1], st[:d])
		st[0] = blk
		sum += uint64(d)

		// Map ring: one insert and one delete per access.
		slot := i % sentRing
		if old := s.ring[slot]; old >= 0 {
			delete(s.live, old)
		}
		key := int64(x >> 20)
		s.live[key] = int32(i)
		s.ring[slot] = key

		// Fenwick tree: one point update and one prefix query, at
		// unrelated positions.
		for j := int(x>>40)%sentFenwick + 1; j <= sentFenwick; j += j & -j {
			s.fen[j]++
		}
		var pre int32
		for j := int(x>>12)%sentFenwick + 1; j > 0; j -= j & -j {
			pre += s.fen[j]
		}
		sum += uint64(pre)
	}
	return sum + uint64(len(s.live))
}

// Sentinels runs one kernel per CPU of a set, each on its own OS thread
// pinned to that CPU for the life of the value. The pinned threads run
// nothing else: processes must be started from other goroutines, or they
// would inherit a one-CPU mask.
type Sentinels struct {
	req []chan struct{}
	res chan sentinelResult
}

type sentinelResult struct {
	Reading
	err error
}

// NewSentinels starts the pinned runners and waits until each is on its
// CPU.
func NewSentinels(cpus []int) (*Sentinels, error) {
	s := &Sentinels{res: make(chan sentinelResult)}
	for _, cpu := range cpus {
		req := make(chan struct{})
		s.req = append(s.req, req)
		go func() {
			// Never unlocked: the thread dies with the goroutine, so
			// its one-CPU mask cannot leak into the scheduler's pool.
			runtime.LockOSThread()
			if err := SetAffinity([]int{cpu}); err != nil {
				s.res <- sentinelResult{err: err}
				return
			}
			k := NewSentinel()
			// The first pass faults the pages in, and refuses to measure
			// with a kernel that is no longer the frozen one.
			if sum := k.Run(); sum != SentinelChecksum {
				s.res <- sentinelResult{err: fmt.Errorf("sentinel checksum %d, want %d: the kernel was edited, and every normalised number with it", sum, SentinelChecksum)}
				return
			}
			s.res <- sentinelResult{}
			for range req {
				// The pass before the timed one refills the caches the
				// op just emptied: a reading taken straight after a
				// child process was 25% slower than one taken after
				// in-process work, for the same host speed, and only
				// readings that mean the same thing everywhere can
				// share one nominal value.
				k.Run()
				c0, t0 := ThreadCPUMS(), time.Now()
				k.Run()
				wall, cpu := time.Since(t0), ThreadCPUMS()-c0
				s.res <- sentinelResult{Reading: Reading{WallMS: float64(wall.Nanoseconds()) / 1e6, CPUMS: cpu}}
			}
		}()
	}
	var first error
	for range cpus {
		if r := <-s.res; r.err != nil && first == nil {
			first = r.err
		}
	}
	if first != nil {
		s.Close()
		return nil, first
	}
	return s, nil
}

// Measure runs the kernel on every CPU of the set at once — one pass to
// warm up, one timed — and returns the mean timed pass.
func (s *Sentinels) Measure() Reading {
	for _, req := range s.req {
		req <- struct{}{}
	}
	var sum Reading
	for range s.req {
		r := <-s.res
		sum.WallMS += r.WallMS
		sum.CPUMS += r.CPUMS
	}
	n := float64(len(s.req))
	return Reading{WallMS: sum.WallMS / n, CPUMS: sum.CPUMS / n}
}

// Close stops the runners.
func (s *Sentinels) Close() {
	for _, req := range s.req {
		close(req)
	}
}
