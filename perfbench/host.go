package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo fingerprints the machine a run measured on, so a noisy verdict
// can be matched against host drift: steal time and a fixed reference
// loop taken before and after the measurement.
type hostInfo struct {
	NProc      int       `json:"nproc"`
	CPU        string    `json:"cpu"`
	GoVersion  string    `json:"go_version"`
	LoadAvg    string    `json:"loadavg"`
	StealShare float64   `json:"steal_share"`
	RefLoopMS  []float64 `json:"ref_loop_ms"`
}

func newHostInfo() *hostInfo {
	h := &hostInfo{NProc: runtime.NumCPU(), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		h.LoadAvg = strings.TrimSpace(string(b))
	}
	return h
}

// cpuTimes reads the aggregate steal and total jiffies from /proc/stat.
func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// refLoop times a fixed integer loop that touches no memory; it moves
// only when the host gives this process less CPU.
func refLoop() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	refSink = x
	return float64(time.Since(start).Microseconds()) / 1000
}

var refSink uint64

// resetPeakRSS restarts this process's VmHWM, so each batch round
// reports its own peak and one late garbage collection does not set the
// figure for the whole run. Where the kernel refuses, VmHWM simply keeps
// the process-lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB returns the VmHWM (peak resident set) of a process in MiB.
func peakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, fmt.Errorf("read status of pid %d: %w", pid, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}
