package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// resultRow is one ranked object as the engine under test reported it,
// whichever entry point returned it.
type resultRow struct {
	ID    int64
	Score float64
}

// recorder accumulates what the caller of one pass saw.
type recorder struct {
	readMS  []float64 // one latency per completed query
	writeMS []float64 // one latency per completed Apply
	logical int64     // Stats.LogicalReads summed over queries
	ops     int       // operations attempted
	failed  int       // errors, refusals and non-2xx answers
	cached  int       // answers the serving layer marked as cache hits
	// answers holds each query's answer by position in the pass, when the
	// pass is the checked one.
	answers [][]resultRow
	// spans, when set, receives one span per query, named spanName;
	// spanOf keeps each operation's span id.
	spans    *tracer
	spanName string
	reqOf    func(op int) string
	spanOf   []int
	// What only the serving workload's answers carry: the client-seen
	// latency less the server's own elapsed time, and the latency of hits.
	httpUS []float64
	hitUS  []float64
}

func (r *recorder) merge(o *recorder) {
	r.readMS = append(r.readMS, o.readMS...)
	r.writeMS = append(r.writeMS, o.writeMS...)
	r.logical += o.logical
	r.ops += o.ops
	r.failed += o.failed
	r.cached += o.cached
	r.httpUS = append(r.httpUS, o.httpUS...)
	r.hitUS = append(r.hitUS, o.hitUS...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the p-th percentile (0..100) of values by linear
// interpolation between the two nearest ranks; values need not be sorted.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (rank-float64(lo))*(s[hi]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 50) }

// The yardstick. This host is a shared virtual machine whose speed wanders
// by tens of percent over minutes (README, Noise), all code alike, so a
// wall-clock number says as much about the minute it was taken in as about
// the program. Between the slices of its timed work a run therefore times a
// fixed piece of work that is no part of the repository — one sort of the
// same refItems integers — and reports its wall-clock metrics at the speed
// at which that sort takes refMS, what it takes on the reference host with
// nothing beside it.
const (
	refItems = 60_000
	refMS    = 4.7
	// slicesPerPass is how often a pass stops for the yardstick: about every
	// quarter of a second, 2% of a run in all.
	slicesPerPass = 10
)

// yardstick times the reference sort whenever asked and keeps the samples.
type yardstick struct {
	src, buf []int
	ms       []float64
}

func newYardstick() *yardstick {
	y := &yardstick{src: make([]int, refItems), buf: make([]int, refItems)}
	x := uint64(88172645463325252) // xorshift64
	for i := range y.src {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		y.src[i] = int(x >> 1)
	}
	return y
}

func (y *yardstick) sample() {
	copy(y.buf, y.src)
	start := time.Now()
	sort.Ints(y.buf)
	y.ms = append(y.ms, ms(time.Since(start)))
}

// slowdown is how many times longer than refMS the reference sort took in
// this run, by the median sample: what a time measured in the run is
// divided by, and a rate multiplied by, to be stated at reference speed.
func (y *yardstick) slowdown() float64 { return median(y.ms) / refMS }

// timedPasses runs the given number of whole passes, garbage-collecting
// before each outside the clock; the target's prepare, when set, readies a
// pass outside the clock too, and the yardstick is read there before every
// slice of a pass. Should the host be so slow that the passes have taken half as
// long again as seconds, it stops after the pass at hand. It returns the
// pooled recorder and each pass's throughput.
func timedPasses(passes int, seconds float64, tg *target, y *yardstick) (*recorder, []float64) {
	total := &recorder{}
	var qps []float64
	var elapsed time.Duration
	slice := max(1, len(tg.plan)/slicesPerPass)
	for n := 1; n <= passes && (n <= 2 || elapsed.Seconds() < 1.5*seconds); n++ {
		if tg.prepare != nil {
			tg.prepare(n)
		}
		runtime.GC()
		r := &recorder{}
		var took time.Duration
		for lo := 0; lo < len(tg.plan); lo += slice {
			y.sample()
			start := time.Now()
			tg.run(n, lo, min(lo+slice, len(tg.plan)), r)
			took += time.Since(start)
		}
		elapsed += took
		qps = append(qps, float64(r.ops-r.failed)/took.Seconds())
		total.merge(r)
	}
	return total, qps
}

// medianSetup repeats a set-up until it has run three times and for atLeast
// in all (at most 25 times) — one 10 ms build does not repeat within a
// tenth — and returns the last product with the median duration. drop
// releases a product that is not kept. The yardstick is read before each.
func medianSetup[T any](atLeast time.Duration, y *yardstick, setup func() (T, error), drop func(T)) (T, float64, error) {
	var (
		kept  T
		took  []float64
		spent time.Duration
	)
	for n := 0; n < 25 && (n < 3 || spent < atLeast); n++ {
		if n > 0 {
			drop(kept)
		}
		runtime.GC()
		y.sample()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return kept, 0, err
		}
		d := time.Since(start)
		spent += d
		took = append(took, d.Seconds())
		kept = v
	}
	return kept, median(took), nil
}

// cpuSeconds returns the user and system CPU time this process has used.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
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
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// resetPeakRSS restarts this process's VmHWM at its current resident set,
// so that the peak reported is that of the timed passes and not of the
// repeated set-ups and the oracle before them. Where the kernel refuses,
// the peak covers the whole run, which is steady too.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
