package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cqa/internal/server"
)

// daemon is one `cqa serve` child process with default flags.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	// stderrDone closes once the daemon's stderr is drained.
	stderrDone chan struct{}
}

// listenPrefix is the line `cqa serve` prints once it accepts.
const listenPrefix = "cqa serve: listening on "

// startDaemon spawns bin as `cqa serve` on an ephemeral loopback port,
// waits until it answers /healthz and pins it to its CPU.
func startDaemon(ctx context.Context, bin string, pl placement) (*daemon, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	// The daemon dies with the harness, even when the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := pl.start(cmd); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, stderrDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.stderrDone)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), listenPrefix); ok && !sent {
				addr <- rest
				sent = true
			}
		}
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok {
			d.stop()
			return nil, errors.New("daemon exited before listening")
		}
		d.base = a
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("daemon did not start listening within 30s")
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	// Two clients, two connections; no compression, so the daemon's
	// work per request is what a plain client costs it.
	d.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 2,
		MaxConnsPerHost:     2,
		DisableCompression:  true,
	}}
	for i := 0; ; i++ {
		resp, err := d.client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				if err := pl.pinDaemon(cmd.Process.Pid); err != nil {
					d.stop()
					return nil, err
				}
				return d, nil
			}
		}
		if i == 300 {
			d.stop()
			return nil, fmt.Errorf("daemon not healthy: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, kills it if it has not exited
// within 30 seconds, and waits for the process. The daemon is the only
// writer of its stderr, so the reader ends when the daemon does.
func (d *daemon) stop() {
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already exited process is fine
	select {
	case <-d.stderrDone:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.stderrDone
	}
	_ = d.cmd.Wait() // the exit status of a drained daemon carries no information here
}

// metrics scrapes /metrics.
func (d *daemon) metrics() (server.Metrics, error) {
	var m server.Metrics
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// sameWork extracts the same-work counters from a /metrics scrape.
func sameWork(m server.Metrics) counters {
	c := countersOf(m.Engine)
	c.Rejected, c.Shed = m.Router.Rejected, m.Router.Shed
	return c
}

// procCPU returns the daemon's user+system CPU time from
// /proc/<pid>/stat (all threads, in clock ticks of 1/100 s).
func (d *daemon) procCPU() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(data)
	// Fields after the parenthesised command name: state is field 3,
	// utime and stime are fields 14 and 15.
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	const tick = 10 * time.Millisecond // USER_HZ = 100 on Linux
	return time.Duration(ut+st) * tick, nil
}

// waitIdle waits until the daemon has used no CPU for two clock ticks
// in a row, or for at most a second: after a phase it may still collect
// garbage, which would slow the host-speed probe on its CPU.
func (d *daemon) waitIdle() error {
	last, err := d.procCPU()
	if err != nil {
		return err
	}
	for i := 0; i < 50; i++ {
		time.Sleep(20 * time.Millisecond)
		now, err := d.procCPU()
		if err != nil {
			return err
		}
		if now == last {
			return nil
		}
		last = now
	}
	return nil
}

// peakRSS returns the daemon's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	return vmHWM(fmt.Sprint(d.cmd.Process.Pid))
}

// vmHWM returns the peak resident set size of process pid ("self" for
// this one) in MiB.
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
