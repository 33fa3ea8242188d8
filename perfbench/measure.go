package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// tailBeyond is how many timed ops must lie above the reported tail
// percentile, so the tail is an observed value rather than an extrapolation.
const tailBeyond = 10

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentile returns the highest whole percentile p of xs that still has
// at least tailBeyond values above it, and that percentile's value by the
// nearest-rank rule (rank ceil(p*n/100)). It needs at least tailBeyond+1
// values.
func tailPercentile(xs []float64) (p int, v float64, err error) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, fmt.Errorf("tail percentile needs more than %d values, have %d", tailBeyond, n)
	}
	// The nearest rank k leaves n-k values beyond it, so k <= n-tailBeyond,
	// and rank(p) = ceil(p*n/100) <= n-tailBeyond holds exactly when
	// p*n <= 100*(n-tailBeyond).
	p = 100 * (n - tailBeyond) / n
	k := (p*n + 99) / 100
	if k < 1 {
		k = 1
	}
	return p, sorted(xs)[k-1], nil
}

// perEvent divides a total by an event count; zero events give zero.
func perEvent(total float64, events uint64) float64 {
	if events == 0 {
		return 0
	}
	return total / float64(events)
}

// sharePct is part as a percentage of whole; an empty whole gives zero.
func sharePct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

// cpuTime is the process's user plus system CPU time so far, over every
// thread (the Go runtime's GC workers included).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail with RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB (ru_maxrss is in
// KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024
}

// resetPeakRSS returns freed heap memory to the OS and restarts the
// kernel's peak-RSS count (ru_maxrss) from the current resident size, so a
// later peakRSSMB covers only what runs after the reset.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak RSS: %w", err)
	}
	return nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// usage is what one measured call cost the process.
type usage struct {
	cpu   time.Duration
	alloc uint64 // Go heap bytes allocated
}

// measure runs fn once after a full GC, so garbage left by earlier calls is
// not charged to it, and returns its process CPU and heap bytes allocated.
func measure(fn func() error) (usage, error) {
	runtime.GC()
	a0, c0 := totalAlloc(), cpuTime()
	err := fn()
	u := usage{cpu: cpuTime() - c0}
	u.alloc = totalAlloc() - a0
	return u, err
}

// loopResult summarises a closed loop of timed ops.
type loopResult struct {
	walls     []float64 // seconds, one per op
	cpus      []float64 // process CPU seconds, one per op
	allocs    []float64 // heap bytes allocated, one per op
	attempted int
	failed    int
	firstErr  error
}

// runLoop runs op back to back, each op starting when the previous one
// returns, until d has passed and at least minOps ops have run. An op that
// returns an error counts as failed and the loop goes on.
func runLoop(op func() error, d time.Duration, minOps int) loopResult {
	var r loopResult
	runtime.GC()
	start := time.Now()
	for r.attempted < minOps || time.Since(start) < d {
		a0, c0, t0 := totalAlloc(), cpuTime(), time.Now()
		err := op()
		r.walls = append(r.walls, time.Since(t0).Seconds())
		r.cpus = append(r.cpus, (cpuTime() - c0).Seconds())
		r.allocs = append(r.allocs, float64(totalAlloc()-a0))
		countOp(&r, err)
	}
	return r
}

// countOp records one op's outcome.
func countOp(r *loopResult, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// errMismatch marks an op whose output differs from the serial reference.
var errMismatch = errors.New("output differs from the serial reference")
