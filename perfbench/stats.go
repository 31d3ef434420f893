package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// minBeyond is how many samples a reported tail percentile must have
// above it; a percentile with fewer is one or two outliers, not a tail.
const minBeyond = 10

// tailLadder lists the tail percentiles, highest first. The first with
// minBeyond samples above it is reported.
var tailLadder = []float64{0.99, 0.95, 0.9, 0.75}

// median returns the middle value of xs (the mean of the two middle ones
// for an even count), or 0 for none.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs: the smallest sample
// with at least q·n samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := rank(q, len(s)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQ picks the tail percentile for n samples: the highest on the
// ladder with at least minBeyond samples above it. Below 40 samples no
// rung qualifies and p90 is used; the run logs the percentile and n.
func tailQ(n int) float64 {
	for _, q := range tailLadder {
		if n-rank(q, n) >= minBeyond {
			return q
		}
	}
	return 0.9
}

// rank is the 1-based nearest rank of the q-quantile of n samples. The
// epsilon keeps q·n from rounding up past a whole number (0.9·100).
func rank(q float64, n int) int {
	return int(math.Ceil(q*float64(n) - 1e-9))
}

// tail returns the tail percentile of xs and the percentile chosen.
func tail(xs []float64) (float64, float64) {
	q := tailQ(len(xs))
	return quantile(xs, q), q
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// opCount tallies the operations a run attempted and how many failed.
type opCount struct {
	attempted, failed int
}

// record counts one operation, failed when err is non-nil.
func (c *opCount) record(err error) {
	c.attempted++
	if err != nil {
		c.failed++
	}
}

// settle collects garbage left by set-up or an earlier pass, outside
// the timed regions, so each measured pass starts from its live heap.
// With resetPeak it also returns freed memory to the OS and restarts
// the kernel's peak-RSS mark, so peakRSSMB covers only what follows.
func settle(resetPeak bool) {
	runtime.GC()
	if !resetPeak {
		return
	}
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0 and later). If it
	// fails, peakRSSMB reports the peak since the process started.
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is this process's peak resident set since the last settle
// that reset it.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}
