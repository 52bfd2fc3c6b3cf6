package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// The served run gives the daemon one CPU and the load generator
// another. Left to itself, the guest scheduler of a 2-vCPU VM sometimes
// runs the daemon and the clients on one vCPU for seconds at a time and
// sometimes on two, and whole runs differed by a factor of two in
// throughput and latency depending on which it chose. Pinning makes the
// placement the same in every run. Both processes start unpinned, so
// the Go runtime of each sizes itself for every CPU it may use (the
// daemon keeps its default GOMAXPROCS, router workers and solve
// workers), and are pinned once they run; threads started later inherit
// the pin.

// cpuMask is a Linux CPU affinity mask.
type cpuMask [16]uint64

func (m *cpuMask) set(cpu int)      { m[cpu/64] |= 1 << (cpu % 64) }
func (m *cpuMask) has(cpu int) bool { return m[cpu/64]&(1<<(cpu%64)) != 0 }

// only returns the mask holding cpu alone.
func only(cpu int) cpuMask {
	var m cpuMask
	m.set(cpu)
	return m
}

// affinity returns the CPU mask of the calling thread.
func affinity() (cpuMask, error) {
	var m cpuMask
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return m, e
	}
	return m, nil
}

// setAffinity sets the CPU mask of thread tid (0: the calling thread).
func setAffinity(tid int, m cpuMask) error {
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	if e != 0 {
		return e
	}
	return nil
}

// pinProcess sets the CPU mask of every thread of process pid. It
// repeats until a pass finds no thread it has not pinned, so a thread
// started during a pass is pinned too.
func pinProcess(pid int, m cpuMask) error {
	done := map[int]bool{}
	for {
		entries, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
		if err != nil {
			return err
		}
		fresh := false
		for _, e := range entries {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || done[tid] {
				continue
			}
			// A thread may exit between the listing and the call.
			if err := setAffinity(tid, m); err != nil && !errors.Is(err, syscall.ESRCH) {
				return fmt.Errorf("pin thread %d: %w", tid, err)
			}
			done[tid] = true
			fresh = true
		}
		if !fresh {
			return nil
		}
	}
}

// placement is the CPU split of a served run.
type placement struct {
	// pinned is false on a host with a single usable CPU, where
	// everything shares it.
	pinned bool
	// daemon is the daemon's CPU, which the host-speed probe measures;
	// clients is the generator's mask; all is the mask this process
	// started with.
	daemon       int
	clients, all cpuMask
}

// newPlacement gives the daemon the first usable CPU and the generator
// the second, and pins this process to the generator's CPU.
func newPlacement() (placement, error) {
	all, err := affinity()
	if err != nil {
		return placement{}, fmt.Errorf("read CPU affinity: %w", err)
	}
	p := placement{all: all, clients: all}
	var cpus []int
	for c := 0; c < len(all)*64 && len(cpus) < 2; c++ {
		if all.has(c) {
			cpus = append(cpus, c)
		}
	}
	if len(cpus) < 2 {
		return p, nil
	}
	p.pinned, p.daemon, p.clients = true, cpus[0], only(cpus[1])
	if err := pinProcess(os.Getpid(), p.clients); err != nil {
		return p, fmt.Errorf("pin the load generator: %w", err)
	}
	return p, nil
}

// release restores this process's CPU mask.
func (p placement) release() error {
	if !p.pinned {
		return nil
	}
	return pinProcess(os.Getpid(), p.all)
}

// start starts cmd from a thread with the mask this process started
// with, so that the child's runtime sizes itself for every CPU; a child
// inherits the mask of the thread that forks it.
func (p placement) start(cmd *exec.Cmd) error {
	if !p.pinned {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, p.all); err != nil {
		return fmt.Errorf("unpin the forking thread: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	if err := setAffinity(0, p.clients); err != nil {
		return fmt.Errorf("re-pin the forking thread: %w", err)
	}
	return nil
}

// pinDaemon moves every thread of the daemon to its CPU.
func (p placement) pinDaemon(pid int) error {
	if !p.pinned {
		return nil
	}
	if err := pinProcess(pid, only(p.daemon)); err != nil {
		return fmt.Errorf("pin the daemon: %w", err)
	}
	return nil
}

// onDaemonCPU runs fn on the calling goroutine's thread moved to the
// daemon's CPU, so that the host-speed probe measures the CPU the
// daemon runs on, and moves the thread back.
func (p placement) onDaemonCPU(fn func()) error {
	if !p.pinned {
		fn()
		return nil
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, only(p.daemon)); err != nil {
		return fmt.Errorf("move to the daemon's CPU: %w", err)
	}
	fn()
	if err := setAffinity(0, p.clients); err != nil {
		return fmt.Errorf("move back to the load generator's CPU: %w", err)
	}
	return nil
}
