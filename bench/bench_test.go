package main

import (
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"stpq"
	"stpq/internal/core"
	"stpq/internal/index"
)

// The benchmark runs from the repository root: it reads BENCHMARK.json,
// builds ./cmd/stpqd and writes under bench/out.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	if err := loadManifest(); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestOracleEqualsBruteForce(t *testing.T) {
	for _, v := range []struct {
		variant stpq.Variant
		radius  float64
	}{{stpq.Range, 0.01}, {stpq.Range, 0.08}, {stpq.Influence, 0.05}, {stpq.NearestNeighbor, 0}} {
		wd := newWorld(workload{Items: 800, Variant: v.variant, Radius: v.radius, Ops: 4}, 3, 1, 1)
		opts := index.Options{VocabWidth: wd.ds.VocabWidth, BufferPages: warmPages}
		oidx, err := index.BuildObjectIndex(wd.ds.Objects, opts)
		if err != nil {
			t.Fatal(err)
		}
		var fidxs []*index.FeatureIndex
		for _, fs := range wd.ds.FeatureSets {
			fidx, err := index.BuildFeatureIndex(fs, opts)
			if err != nil {
				t.Fatal(err)
			}
			fidxs = append(fidxs, fidx)
		}
		eng, err := core.NewEngine(oidx, fidxs, core.Options{BatchSTDS: true})
		if err != nil {
			t.Fatal(err)
		}
		got := newOracle(wd.ds.Objects, wd.ds.FeatureSets).answers(wd.queries)
		for i, q := range wd.queries {
			want, err := eng.BruteForce(q)
			if err != nil {
				t.Fatal(err)
			}
			rows := make([]resultRow, len(got[i]))
			for j, r := range got[i] {
				rows[j] = resultRow{r.ID, r.Score}
			}
			if !sameAnswer(rows, want) {
				t.Fatalf("variant %v r=%v query %d: oracle %v, BruteForce %v", v.variant, v.radius, i, got[i], want)
			}
		}
	}
}

// Every workload, at 2% of its data and a tenth of its operations, must
// answer correctly and report every named metric with its unit, untraced
// and traced.
func TestWorkloadsSmoke(t *testing.T) {
	if _, err := os.Stat("cmd/stpqd"); err != nil {
		t.Skip("not inside the repository: ", err)
	}
	opt := options{seed: 2, seconds: 0.2, scale: 0.02}
	for _, w := range workloads {
		if w.Kind == kindHTTP {
			w.Ops = 60 // 18 requests to the 16 hot queries, so the result cache is hit
		} else {
			w.Ops = max(20, w.Ops/10)
		}
		for _, run := range []struct {
			name    string
			fn      func(workload, options) (*result, stamp, error)
			metrics []metric
		}{{"end-to-end", runWorkload, endToEnd}, {"traced", traceWorkload, perLayer}} {
			res, _, err := run.fn(w, opt)
			if err != nil {
				t.Fatalf("%s %s: %v", w.Name, run.name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s %s: correct=%v failed=%d attempted=%d", w.Name, run.name, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(run.metrics) {
				t.Errorf("%s %s: %d metrics, want %d", w.Name, run.name, len(res.Metrics), len(run.metrics))
			}
			for _, m := range run.metrics {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s %s: metric %s = %+v (present %v), want a number in %s", w.Name, run.name, m.Name, v, ok, m.Unit)
				}
				if run.name == "end-to-end" && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, v.Value)
				}
			}
		}
	}
}

// BENCHMARK.json keeps to the contract's form: names and units of the
// allowed shape, each name once, within the allowed counts, every
// end-to-end metric with a direction and a bound of at most a quarter.
func TestManifest(t *testing.T) {
	form := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) < 1 || len(endToEnd) > 16 || len(perLayer) < 1 || len(perLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics are outside 2–8, 1–16, 1–128", len(workloads), len(endToEnd), len(perLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !form.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v: malformed unit, direction or bound", m)
		}
		setup = setup || m == metric{Name: "setup_s", Unit: "s", Better: "lower", Bound: m.Bound}
	}
	if !setup {
		t.Error("no end-to-end metric setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v: malformed unit or direction, or a bound", m)
		}
	}
}

func TestPercentile(t *testing.T) {
	values := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {95, 38.5}, {25, 17.5}} {
		if got := percentile(values, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 || median([]float64{7}) != 7 {
		t.Error("empty and single-value percentiles")
	}
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	// gives [3.5, 24.0, 160.0].
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if math.Abs(q1-3.5)+math.Abs(q2-24)+math.Abs(q3-160) > 1e-9 {
		t.Errorf("quartiles = %v %v %v, want 3.5 24 160", q1, q2, q3)
	}
}

// Spans keep what was measured: an inner call is filed under the outer one,
// which is all a reader of the span file needs to take self times.
func TestSpans(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.zero.Add(time.Duration(us) * time.Microsecond) }
	outer := tr.add("topk", "w/0", 0, at(0), at(100))
	inner := tr.add("stps", "w/0", outer, at(20), at(90))
	if outer != 1 || inner != 2 || tr.spans[1].Parent != outer || tr.spans[1].duration() != 70*time.Microsecond || tr.spans[0].Req != "w/0" {
		t.Errorf("spans %+v", tr.spans)
	}
}
