package main

import (
	"fmt"
	"math/rand"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a share of a machine whose speed
// drifts: while neighbours are busy, the same work takes up to 2.4
// times the CPU time it takes otherwise, for minutes at a time.
// Every time the result line reports is therefore scaled by the host's
// speed, measured in the same run by a fixed probe that does not call
// cqa, so a change to cqa leaves the probe's cost unchanged and shows in
// the scaled figures in full.
//
// The probe runs on the daemon's CPU while the daemon and the clients
// are idle, and its speed is its CPU time, not its wall time: CPU time
// slows with the host, whereas wall time also grows when another task
// shares the CPU, and the probe, busy throughout, then loses a larger
// share of the CPU than the daemon, which mostly waits. The CPU time is
// compared with a fixed nominal cost, and a figure is multiplied or
// divided by the ratio: on a host where the probe takes its nominal
// cost, the scaled value equals the measured one.
const nominalCPU = 10 * time.Millisecond

// probe is a pointer chase along a random cycle through a table that
// fills half of a core's 2 MiB L2 cache. The daemon walks its interned
// instances and memo tables in the same dependent, cache-bound way. Of
// the kinds of work tried as a probe (this chase, a chase through 32
// MiB, map inserts and lookups, a JSON round trip, a sort, small
// allocations), this chase followed the daemon best on a slowed host
// (README.md, Placement and host speed).
type probe struct {
	next []uint32
}

// Probe sizes: one run of the probe took 15 to 22 ms on a 2-vCPU VM
// whose host ran at half speed.
const (
	probeSlots = 1 << 18
	probeSteps = 1 << 21
	// probeReps timed runs make one measurement.
	probeReps = 5
)

// newProbe builds one cycle through all slots (Sattolo's shuffle), so
// the chase never settles in a short loop; the seed is fixed, so every
// run walks the same cycle.
func newProbe() *probe {
	rng := rand.New(rand.NewSource(1))
	p := &probe{next: make([]uint32, probeSlots)}
	for i := range p.next {
		p.next[i] = uint32(i)
	}
	for i := len(p.next) - 1; i > 0; i-- {
		j := rng.Intn(i)
		p.next[i], p.next[j] = p.next[j], p.next[i]
	}
	return p
}

// work runs the probe once and returns where the chase ended, so that
// it is not optimised away.
func (p *probe) work() uint64 {
	at := uint32(0)
	for i := 0; i < probeSteps; i++ {
		at = p.next[at]
	}
	return uint64(at)
}

// hostSpeed collects the probe runs of one served run.
type hostSpeed struct {
	probe *probe
	// cpus holds each timed probe run's CPU time relative to nominal.
	cpus []float64
	sink uint64
}

func newHostSpeed() *hostSpeed { return &hostSpeed{probe: newProbe()} }

// measure runs the probe probeReps times on the daemon's CPU, after one
// untimed run that warms the caches, and records each run's CPU time
// relative to nominal.
func (h *hostSpeed) measure(p placement) error {
	err := p.onDaemonCPU(func() {
		h.sink += h.probe.work()
		for i := 0; i < probeReps; i++ {
			cpu0 := threadCPU()
			h.sink += h.probe.work()
			h.cpus = append(h.cpus, (threadCPU()-cpu0).Seconds()/nominalCPU.Seconds())
		}
	})
	if err != nil {
		return fmt.Errorf("host-speed probe: %w", err)
	}
	return nil
}

// slowdown is the median CPU time of the run's probe runs relative to
// nominal: 1 at nominal speed, 2 when the probe took twice its nominal
// CPU time.
func (h *hostSpeed) slowdown() float64 { return median(h.cpus) }

// threadCPU is the CPU time of the calling thread, from
// CLOCK_THREAD_CPUTIME_ID: getrusage counts it in clock ticks, too
// coarse for a probe run of a few milliseconds.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID, which package
// syscall does not name.
const clockThreadCPUTime = 3
