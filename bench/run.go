package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"stpq/internal/core"
)

// options are the arguments of one run.
type options struct {
	seed    int64
	seconds float64
	scale   float64 // 1 in every measured run; the smoke test shrinks the data
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// newResult reports the listed metrics, each with the unit BENCHMARK.json
// gives it; a metric without a value reports 0. A value BENCHMARK.json does
// not list is a misspelt name.
func newResult(metrics []metric, values map[string]float64, correct bool, attempted, failed int) (*result, error) {
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		res.Metrics[m.Name] = value{values[m.Name], m.Unit}
	}
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("metric %q is not in BENCHMARK.json", name)
		}
	}
	return res, nil
}

// stamp records where and on what a run's numbers were measured; it
// precedes them on standard output and heads every span file.
type stamp struct {
	Workload   string  `json:"workload"`
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	DataSeed   int64   `json:"data_seed"`
	QuerySeed  int64   `json:"query_seed"`
	Seconds    float64 `json:"seconds"`
	Items      int     `json:"items"`         // data objects, and features per set
	OpsPerPass int     `json:"ops_per_pass"`  // Q
	Passes     int     `json:"timed_passes"`  // whole passes inside the clock
	Samples    int     `json:"query_samples"` // N behind the latency percentiles
	Slowdown   float64 `json:"slowdown"`      // the reference sort's time over refMS
}

func newStamp(w workload, opt options) stamp {
	s := stamp{
		Workload: w.Name, Commit: "unknown", GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: "unknown",
		DataSeed: opt.seed, QuerySeed: opt.seed + 6, Seconds: opt.seconds,
		Items: scaled(w.Items, opt.scale), OpsPerPass: w.Ops,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				s.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return s
}

// plan returns the operation list of one pass — for each operation the
// query of the pass it asks, or -1 for a write — with the number of queries
// a pass draws on and how many of them every pass shares.
func (w workload) plan() (plan []int, queries, shared int) {
	switch w.Kind {
	case kindHTTP:
		plan, queries = servePlan(w.Ops)
		return plan, queries, hotQueries
	case kindIngest:
		plan, queries = ingestPlan(w.Ops)
		return plan, queries, 0
	default:
		return identityPlan(w.Ops), w.Ops, 0
	}
}

// passSeconds is what one pass is sized to take on the reference host.
const passSeconds = 2.5

// passesFor returns how many timed passes measure for about seconds. The
// number depends on the argument alone, so that a seed's counts repeat.
func passesFor(seconds float64) int {
	return max(2, int(math.Round(seconds/passSeconds)))
}

// measured is everything an untraced run learns about its target.
type measured struct {
	setupS  float64
	slow    float64   // the yardstick's slowdown over set-ups and timed passes
	total   *recorder // pooled timed passes
	qps     []float64 // per timed pass
	rssMB   float64
	checked int // answers compared with the oracle
	wrong   int
	warm    *recorder
}

// measure sets the workload up, checks the warm-up pass against the oracle
// and runs the timed passes.
func measure(w workload, wd *world, opt options) (*measured, error) {
	var stpqd string
	if w.Kind == kindHTTP {
		var err error
		if stpqd, err = buildStpqd(); err != nil {
			return nil, err
		}
	}
	// Set-ups get 15% of the measured time on top of it: 1.5 s of a 10 s run.
	atLeast := time.Duration(0.15 * opt.seconds * float64(time.Second))
	y := newYardstick()
	tg, setupS, err := medianSetup(atLeast, y, func() (*target, error) { return open(w, wd, opt.seed, stpqd) }, closeTarget)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer closeTarget(tg)
	// The oracle works beside the warm-up pass, which is not timed.
	want := make(chan [][]core.Result, 1)
	go func() { want <- newOracle(wd.ds.Objects, wd.ds.FeatureSets).answers(wd.queries[:wd.per]) }()
	m := &measured{setupS: setupS, warm: &recorder{answers: make([][]resultRow, len(tg.plan))}}
	tg.pass(0, m.warm)
	m.checked = m.warm.ops
	m.wrong = countWrong(m.warm.answers, tg.plan, <-want)

	if tg.pid == os.Getpid() {
		resetPeakRSS()
	}
	m.total, m.qps = timedPasses(passesFor(opt.seconds), opt.seconds, tg, y)
	m.slow = y.slowdown()
	if m.rssMB, err = peakRSSMB(tg.pid); err != nil {
		return nil, err
	}
	if tg.finish != nil {
		checked, wrong, err := tg.finish()
		if err != nil {
			return nil, fmt.Errorf("final check: %w", err)
		}
		m.checked += checked
		m.wrong += wrong
	}
	return m, nil
}

// runWorkload measures the end-to-end metrics of one workload.
func runWorkload(w workload, opt options) (*result, stamp, error) {
	runtime.GOMAXPROCS(2)
	wd := newWorld(w, opt.seed, opt.scale, passesFor(opt.seconds))
	m, err := measure(w, wd, opt)
	st := newStamp(w, opt)
	if err != nil {
		return nil, st, err
	}
	st.Passes, st.Samples, st.Slowdown = len(m.qps), len(m.total.readMS), m.slow
	failed := m.warm.failed + m.total.failed
	// Times and rates as the clock gave them, then at reference speed.
	raw := map[string]float64{
		"setup_s":        m.setupS,
		"query_p50_ms":   percentile(m.total.readMS, 50),
		"query_p95_ms":   percentile(m.total.readMS, 95),
		"throughput_qps": median(m.qps),
	}
	values := map[string]float64{
		"setup_s":                 raw["setup_s"] / m.slow,
		"query_p50_ms":            raw["query_p50_ms"] / m.slow,
		"query_p95_ms":            raw["query_p95_ms"] / m.slow,
		"throughput_qps":          raw["throughput_qps"] * m.slow,
		"logical_reads_per_query": float64(m.total.logical) / float64(len(m.total.readMS)),
		"rss_peak_mb":             m.rssMB,
	}
	res, err := newResult(endToEnd, values, m.wrong == 0 && failed == 0, m.warm.ops+m.total.ops, failed)
	if err != nil {
		return nil, st, err
	}
	fmt.Printf("checked %d answers against the oracle: %d wrong\n", m.checked, m.wrong)
	fmt.Printf("throughput of each timed pass, as clocked: %.2f 1/s\n", m.qps)
	fmt.Printf("the reference sort took %.4f times its %.1f ms; as clocked:", m.slow, refMS)
	for _, name := range []string{"setup_s", "query_p50_ms", "query_p95_ms", "throughput_qps"} {
		fmt.Printf(" %s %.4f", name, raw[name])
	}
	fmt.Println()
	return res, st, nil
}
