package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It
// is 100 on every Linux configuration Go supports.
const clockTick = 100

// procCPU is the user+system CPU time a process has consumed so far.
func procCPU(pid int) (time.Duration, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(blob, ')')
	fields := strings.Fields(string(blob[i+1:]))
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected format", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: unexpected CPU fields", pid)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// procPeakRSS is a process's resident-set high-water mark (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/%d/status VmHWM %q: %w", pid, rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status: no VmHWM line", pid)
}

// selfCPU is the benchmark process's own user+system CPU time; in-process
// workloads run the engine here.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpu sums the CPU consumed so far by every server process.
func (f *fleet) cpu() (total time.Duration, byName map[string]time.Duration, err error) {
	byName = map[string]time.Duration{}
	for _, p := range f.procs {
		d, err := procCPU(p.cmd.Process.Pid)
		if err != nil {
			return 0, nil, err
		}
		byName[p.name] = d
		total += d
	}
	return total, byName, nil
}

// peakRSS sums the servers' resident-set high-water marks.
func (f *fleet) peakRSS() (total float64, byName map[string]float64, err error) {
	byName = map[string]float64{}
	for _, p := range f.procs {
		mb, err := procPeakRSS(p.cmd.Process.Pid)
		if err != nil {
			return 0, nil, err
		}
		byName[p.name] = mb
		total += mb
	}
	return total, byName, nil
}

// cpuModel is the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if strings.HasPrefix(line, "model name") {
			if _, v, ok := strings.Cut(line, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return "unknown"
}
