package obs

// prometheus_test.go checks the text exposition against the format rules a
// real Prometheus scraper enforces: metric and label names must match the
// identifier grammar, histogram buckets must be cumulative (monotone
// non-decreasing) and end in a +Inf bucket equal to _count, and snapshots
// taken concurrently with increments must stay internally consistent.

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseSample splits `name{labels} value` (labels optional) and validates
// the name and each label against the Prometheus grammar.
func parseSample(t *testing.T, line string) (name string, labels map[string]string, value float64) {
	t.Helper()
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		t.Fatalf("malformed sample line %q", line)
	}
	series, valStr := line[:sp], line[sp+1:]
	v, err := strconv.ParseFloat(valStr, 64)
	if err != nil {
		t.Fatalf("sample %q: bad value: %v", line, err)
	}
	labels = map[string]string{}
	name = series
	if i := strings.IndexByte(series, '{'); i >= 0 {
		if !strings.HasSuffix(series, "}") {
			t.Fatalf("sample %q: unterminated label set", line)
		}
		name = series[:i]
		for _, pair := range splitLabelPairs(t, series[i+1:len(series)-1]) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				t.Fatalf("sample %q: label pair %q has no '='", line, pair)
			}
			ln, lv := pair[:eq], pair[eq+1:]
			if !labelNameRe.MatchString(ln) {
				t.Errorf("sample %q: invalid label name %q", line, ln)
			}
			unq, err := strconv.Unquote(lv)
			if err != nil {
				t.Fatalf("sample %q: label value %q not a quoted string: %v", line, lv, err)
			}
			labels[ln] = unq
		}
	}
	if !metricNameRe.MatchString(name) {
		t.Errorf("invalid metric name %q in %q", name, line)
	}
	return name, labels, v
}

// splitLabelPairs splits a label set on commas outside quoted values.
func splitLabelPairs(t *testing.T, s string) []string {
	t.Helper()
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

// exposition renders a registry plus a shape table the way the DB's
// /metrics endpoint does.
func exposition(t *testing.T, r *Registry, shapes *ShapeStats) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := shapes.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func testRegistry() (*Registry, *ShapeStats) {
	r := NewRegistry()
	r.Counter("stpq_queries_total").Add(12)
	r.Counter(`stpq_bufferpool_hits_total{pool="objects"}`).Add(7)
	r.Counter(`stpq_serve_rejected_total{reason="overload"}`).Add(2)
	r.Gauge("stpq_ingest_delta_objects").Set(3)
	h := r.Histogram("stpq_query_seconds", LatencyBuckets)
	for _, v := range []float64{0.0001, 0.002, 0.03, 0.4, 20} {
		h.Observe(v)
	}
	f := r.Histogram("stpq_wal_fsync_seconds", []float64{0.001, 0.01, 0.1})
	f.Observe(0.004)

	shapes := NewShapeStats()
	shapes.Observe(ShapeKey{Alg: "stps", Variant: "range", Sim: "jaccard", K: 10, RBucket: RadiusBucket(0.1), Sets: 2},
		2*time.Millisecond, time.Millisecond, 400, 40, 12)
	shapes.Observe(ShapeKey{Alg: "stds", Variant: "nearest-neighbor", Sim: "dice", K: 5, RBucket: noRadius, Sets: 1},
		3*time.Millisecond, time.Millisecond, 500, 50, 0)
	return r, shapes
}

func TestPrometheusNamesAndLabelsValid(t *testing.T) {
	r, shapes := testRegistry()
	out := exposition(t, r, shapes)
	typeRe := regexp.MustCompile(`^# TYPE ([^ ]+) (counter|gauge|histogram)$`)
	samples := 0
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Errorf("malformed comment line %q", line)
				continue
			}
			if !metricNameRe.MatchString(m[1]) {
				t.Errorf("invalid family name %q", m[1])
			}
			continue
		}
		parseSample(t, line)
		samples++
	}
	if samples == 0 {
		t.Fatal("exposition produced no samples")
	}
	// The shape families made it into the output with the shape label.
	if !strings.Contains(out, `stpq_shape_queries_total{shape="stps|range|jaccard|`) {
		t.Errorf("shape family missing:\n%s", out)
	}
}

func TestPrometheusHistogramInvariants(t *testing.T) {
	r, shapes := testRegistry()
	out := exposition(t, r, shapes)

	type hist struct {
		buckets []float64 // values in emission order (le ascending, +Inf last)
		infSeen bool
		count   float64
		hasCnt  bool
	}
	hists := map[string]*hist{}
	get := func(name string) *hist {
		h := hists[name]
		if h == nil {
			h = &hist{}
			hists[name] = h
		}
		return h
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, labels, v := parseSample(t, line)
		switch {
		case strings.HasSuffix(name, "_bucket"):
			h := get(strings.TrimSuffix(name, "_bucket"))
			le, ok := labels["le"]
			if !ok {
				t.Errorf("bucket sample without le: %q", line)
				continue
			}
			h.buckets = append(h.buckets, v)
			if le == "+Inf" {
				h.infSeen = true
			}
		case strings.HasSuffix(name, "_count"):
			h := get(strings.TrimSuffix(name, "_count"))
			h.count, h.hasCnt = v, true
		}
	}
	if len(hists) < 2 {
		t.Fatalf("expected at least 2 histogram families, parsed %d", len(hists))
	}
	for name, h := range hists {
		if !h.infSeen {
			t.Errorf("%s: no +Inf bucket", name)
		}
		if !h.hasCnt {
			t.Errorf("%s: no _count series", name)
			continue
		}
		for i := 1; i < len(h.buckets); i++ {
			if h.buckets[i] < h.buckets[i-1] {
				t.Errorf("%s: cumulative buckets decreased at %d: %v", name, i, h.buckets)
			}
		}
		if last := h.buckets[len(h.buckets)-1]; last != h.count {
			t.Errorf("%s: +Inf bucket %v != count %v", name, last, h.count)
		}
	}
}

// TestPrometheusConcurrentSnapshot scrapes while writers increment; run
// under -race this proves Snapshot and WritePrometheus need no external
// locking, and each scrape must still satisfy the histogram invariants.
func TestPrometheusConcurrentSnapshot(t *testing.T) {
	r := NewRegistry()
	shapes := NewShapeStats()
	key := ShapeKey{Alg: "stps", Variant: "range", Sim: "jaccard", K: 10, RBucket: RadiusBucket(0.1), Sets: 2}
	// Pre-create the instruments so the first scrape can't race their birth.
	r.Counter("stpq_queries_total").Inc()
	r.Histogram("stpq_query_seconds", LatencyBuckets).Observe(0.001)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := r.Histogram("stpq_query_seconds", LatencyBuckets)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter("stpq_queries_total").Inc()
				h.Observe(float64(i%100) / 1000)
				shapes.Observe(key, time.Millisecond, 0, 10, 1, 2)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		out := exposition(t, r, shapes)
		if !strings.Contains(out, "stpq_queries_total") {
			t.Fatalf("scrape %d lost the counter:\n%s", i, out)
		}
	}
	close(stop)
	wg.Wait()

	// After the writers stop, the final scrape must be exact.
	snap := r.Snapshot()
	h := snap.Histograms["stpq_query_seconds"]
	var sum int64
	for _, c := range h.Counts {
		sum += c
	}
	if sum != h.Count {
		t.Errorf("bucket sum %d != count %d", sum, h.Count)
	}
}

// TestShapeCountersExact: every stpq_shape_*_total prints its aggregate's
// integer total. A counter rebuilt as mean × count would print 49 reads
// over 11 queries as 48.99999999999999, and its seconds, from a mean in
// whole nanoseconds, would fall from 100 ns to 99 ns when a 1 ns query
// follows two of 50 ns.
func TestShapeCountersExact(t *testing.T) {
	key := ShapeKey{Alg: "stps", Variant: "range", Sim: "jaccard", K: 10, RBucket: RadiusBucket(0.1), Sets: 2}
	sample := func(shapes *ShapeStats, family string) string {
		t.Helper()
		prefix := family + "{shape=" + strconv.Quote(key.String()) + "} "
		for _, line := range strings.Split(exposition(t, NewRegistry(), shapes), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				return v
			}
		}
		t.Fatalf("no %s sample for %q", family, key.String())
		return ""
	}

	reads := NewShapeStats()
	for i := 0; i < 11; i++ {
		n := int64(4)
		if i == 0 {
			n = 9
		}
		reads.Observe(key, time.Microsecond, 0, n, n, int(n))
	}
	for _, family := range []string{"stpq_shape_logical_reads_total", "stpq_shape_physical_reads_total", "stpq_shape_combinations_total"} {
		if got := sample(reads, family); got != "49" {
			t.Errorf("%s = %s after 49 over 11 queries, want 49", family, got)
		}
	}

	seconds := NewShapeStats()
	total := time.Duration(0)
	for _, d := range []time.Duration{50, 50, 1} {
		seconds.Observe(key, d, d, 0, 0, 0)
		total += d
		for _, family := range []string{"stpq_shape_seconds_total", "stpq_shape_io_seconds_total"} {
			got, err := strconv.ParseFloat(sample(seconds, family), 64)
			if err != nil {
				t.Fatal(err)
			}
			if want := float64(total) / 1e9; got != want {
				t.Errorf("%s = %g after %v in all, want %g", family, got, total, want)
			}
		}
	}
}
