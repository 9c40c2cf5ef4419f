package main

// Launching and observing the mfpd process under test.

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// daemon is one running mfpd.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan error
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches bin with an empty in-memory namespace and returns
// once /healthz answers. It polls without sleeping: a refused dial returns
// at once, and a sleep between tries would add up to its own length to
// every set-up time.
func startDaemon(bin string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{"-mesh", "0", "-addr", addr, "-log-level", "warn"}
	d := &daemon{cmd: exec.Command(bin, args...), base: "http://" + addr, done: make(chan error, 1)}
	d.cmd.Stdout, d.cmd.Stderr = os.Stderr, os.Stderr
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() { d.done <- d.cmd.Wait() }() // joined by stop
	probe := &http.Client{Timeout: time.Second}
	defer probe.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		select {
		case err := <-d.done:
			d.done <- err
			return nil, fmt.Errorf("mfpd exited during start-up: %v", err)
		default:
		}
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			continue // not listening yet
		}
		conn.Close()
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
	}
	d.stop()
	return nil, errors.New("mfpd did not become healthy within 30s")
}

// stop sends SIGTERM (mfpd drains and exits) and waits for the process,
// killing it if the drain takes longer than 20s.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited; Wait below reports that
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// cpuTime returns the process's total user+system CPU time at nanosecond
// resolution: clock_gettime on its process CPU clock, which sums every
// thread, live or exited (unlike /proc tick counters, which move in 10 ms
// steps).
func (d *daemon) cpuTime() (time.Duration, error) {
	// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED) from the kernel's
	// posix-timers.h: ((~pid) << 3) | 2.
	clock := (^int64(d.cmd.Process.Pid))<<3 | 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, fmt.Errorf("clock_gettime(process cpu clock): %w", e)
	}
	return time.Duration(ts.Nano()), nil
}

// peakRSS returns the process's VmHWM in MiB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")))
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
