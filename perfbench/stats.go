package main

import (
	"bufio"
	"errors"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the exact q-quantile (nearest rank) of the sorted
// samples: the smallest sample with at least q·n samples at or below
// it. It is computed from every retained sample, with no bucketing, so
// the measuring tool does not depend on the program's histograms.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), leaving xs unchanged.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errNoVmHWM
}

// hostCPU is a reading of the machine-wide CPU time counters.
type hostCPU struct{ steal, total uint64 }

// readHostCPU reads the first line of /proc/stat: user, nice, system,
// idle, iowait, irq, softirq and steal ticks (guest time is already
// inside user). A zero reading means the counters are unavailable.
func readHostCPU() hostCPU {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	var h hostCPU
	for i := 1; i < len(f) && i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return hostCPU{}
		}
		h.total += v
		if i == 8 {
			h.steal = v
		}
	}
	return h
}

// stealPct is the share of the machine's CPU time the hypervisor gave
// to other guests between two readings, in percent: the noise that no
// change to the program can explain.
func stealPct(from, to hostCPU) float64 {
	return 100 * ratio(float64(to.steal-from.steal), float64(to.total-from.total))
}

var errNoVmHWM = errors.New("no VmHWM line in /proc/self/status")
