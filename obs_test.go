package stpq

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// randomObsDB builds a moderately sized random DB with a small buffer pool,
// so queries of every variant do real page I/O and evictions.
func randomObsDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	vocab := make([]string, 24)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("kw%02d", i)
	}
	pick := func(n int) []string {
		out := make([]string, 0, n)
		for _, j := range rng.Perm(len(vocab))[:n] {
			out = append(out, vocab[j])
		}
		return out
	}
	db := New(cfg)
	objs := make([]Object, 300)
	for i := range objs {
		objs[i] = Object{ID: int64(i + 1), X: rng.Float64(), Y: rng.Float64()}
	}
	db.AddObjects(objs)
	for _, name := range []string{"restaurants", "coffeehouses"} {
		feats := make([]Feature, 200)
		for i := range feats {
			feats[i] = Feature{
				ID:       int64(i + 1),
				X:        rng.Float64(),
				Y:        rng.Float64(),
				Score:    rng.Float64(),
				Keywords: pick(2 + rng.Intn(3)),
			}
		}
		db.AddFeatureSet(name, feats)
	}
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	return db
}

func obsQuery(alg Algorithm, v Variant) Query {
	return Query{
		K:      5,
		Radius: 0.15,
		Lambda: 0.5,
		Keywords: map[string][]string{
			"restaurants":  {"kw01", "kw05", "kw09"},
			"coffeehouses": {"kw02", "kw07", "kw11"},
		},
		Algorithm: alg,
		Variant:   v,
	}
}

// Every query, across both algorithms, all three variants and both index
// kinds, must satisfy LogicalReads ≥ PhysicalReads, and its trace root must
// account for exactly the query's page reads, with child spans never
// exceeding the root.
func TestReadInvariantsAndTraceAttribution(t *testing.T) {
	for _, kind := range []IndexKind{SRT, IR2} {
		db := randomObsDB(t, Config{IndexKind: kind, BufferPages: 8})
		for _, alg := range []Algorithm{STPS, STDS} {
			for _, v := range []Variant{Range, Influence, NearestNeighbor} {
				name := fmt.Sprintf("kind=%v/alg=%d/variant=%d", kind, alg, v)
				q := obsQuery(alg, v)
				q.Trace = true
				_, stats, err := db.TopK(q)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if stats.LogicalReads < stats.PhysicalReads {
					t.Errorf("%s: LogicalReads %d < PhysicalReads %d",
						name, stats.LogicalReads, stats.PhysicalReads)
				}
				if stats.LogicalReads == 0 {
					t.Errorf("%s: query did no page reads", name)
				}
				root := stats.Trace
				if root == nil {
					t.Fatalf("%s: tracing on but Stats.Trace is nil", name)
				}
				if root.PhysicalReads != stats.PhysicalReads {
					t.Errorf("%s: root span physical reads %d != stats %d",
						name, root.PhysicalReads, stats.PhysicalReads)
				}
				if root.LogicalReads != stats.LogicalReads {
					t.Errorf("%s: root span logical reads %d != stats %d",
						name, root.LogicalReads, stats.LogicalReads)
				}
				// A parent span is open while its children run, so each
				// span's reads must cover the sum of its children's.
				root.Walk(func(_ string, _ int, sp *Span) {
					var phy, log int64
					for _, c := range sp.Children {
						phy += c.PhysicalReads
						log += c.LogicalReads
					}
					if phy > sp.PhysicalReads || log > sp.LogicalReads {
						t.Errorf("%s: span %q children reads (%d/%d) exceed parent (%d/%d)",
							name, sp.Name, log, phy, sp.LogicalReads, sp.PhysicalReads)
					}
				})
			}
		}
	}
}

// Tracing off (the default) must leave Stats.Trace nil; SetTraceSampling
// flips it both ways on a built DB, and refuses a rate or threshold out of
// range without changing the policy.
func TestSetTracingToggles(t *testing.T) {
	db := paperDB(t, Config{})
	_, stats, err := db.TopK(paperQuery(3, STPS))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trace != nil {
		t.Fatal("tracing off but Stats.Trace set")
	}
	if err := db.SetTraceSampling(1, 0); err != nil {
		t.Fatal(err)
	}
	_, stats, err = db.TopK(paperQuery(3, STPS))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trace == nil {
		t.Fatal("tracing on but Stats.Trace nil")
	}
	if stats.Trace.Name != "stps.range" {
		t.Fatalf("root span %q, want stps.range", stats.Trace.Name)
	}
	if s := stats.Trace.String(); !strings.Contains(s, "stps.range") {
		t.Fatalf("trace rendering missing root: %q", s)
	}
	if err := db.SetTraceSampling(0, 0); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		rate float64
		slow time.Duration
	}{{math.NaN(), 0}, {-0.1, 0}, {1.5, 0}, {math.Inf(1), 0}, {0.5, -time.Nanosecond}} {
		if err := db.SetTraceSampling(bad.rate, bad.slow); err == nil {
			t.Errorf("SetTraceSampling(%v, %v) accepted", bad.rate, bad.slow)
		}
	}
	_, stats, err = db.TopK(paperQuery(3, STPS))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trace != nil {
		t.Fatal("tracing disabled again but Stats.Trace set")
	}
}

// A pool frame holds the disk's own image of its page and readers scan it
// in place, so a miss copies and decodes nothing: over a cycle of cold
// queries — both algorithms, every variant, object and feature pools of
// four pages each — the queries allocate less than a quarter of a page
// image per miss (30–52 B of a 512 B page measured; about 250–410 B while
// every object-pool miss decoded its page, and a miss that
// copied its page would add one more). The victim's frame takes each missed
// page; no image is recycled, none is allocated.
func TestColdQueriesRecycleFrames(t *testing.T) {
	for _, cfg := range []Config{{IndexKind: SRT}, {IndexKind: IR2}} {
		cfg.PageSize, cfg.BufferPages = 512, 4
		name := fmt.Sprintf("kind=%d", cfg.IndexKind)
		db := randomObsDB(t, cfg)
		misses := func() (n int64) {
			for series, v := range db.Metrics().Counters {
				if strings.HasPrefix(series, "stpq_bufferpool_misses_total{") {
					n += v
				}
			}
			return n
		}
		cycle := func() {
			for _, alg := range []Algorithm{STPS, STDS} {
				for _, v := range []Variant{Range, Influence, NearestNeighbor} {
					if _, _, err := db.TopK(obsQuery(alg, v)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		cycle() // fills the pools and the NN cell store
		var before, after runtime.MemStats
		misses0 := misses()
		runtime.ReadMemStats(&before)
		cycle()
		cycle()
		runtime.ReadMemStats(&after)
		n := misses() - misses0
		perMiss := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("%s: %d misses, %.0f B allocated per miss", name, n, perMiss)
		if n < 100 {
			t.Fatalf("%s: %d misses in two cycles: the pools are not cold, the test shows nothing", name, n)
		}
		if perMiss >= float64(cfg.PageSize)/4 {
			t.Errorf("%s: %.0f B allocated per miss, want less than a quarter of a %d B page", name, perMiss, cfg.PageSize)
		}
	}
}

// DB metrics must survive a JSON round trip unchanged and emit parseable
// Prometheus text.
func TestDBMetricsExport(t *testing.T) {
	db := paperDB(t, Config{})
	for _, alg := range []Algorithm{STPS, STDS} {
		if _, _, err := db.TopK(paperQuery(3, alg)); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Metrics()
	if snap.Counters[`stpq_queries_total{alg="stps",variant="range"}`] != 1 {
		t.Errorf("stps query counter = %d, want 1",
			snap.Counters[`stpq_queries_total{alg="stps",variant="range"}`])
	}
	if snap.Counters[`stpq_queries_total{alg="stds",variant="range"}`] != 1 {
		t.Errorf("stds query counter = %d, want 1",
			snap.Counters[`stpq_queries_total{alg="stds",variant="range"}`])
	}
	var poolHits, poolMisses int64
	for name, v := range snap.Counters {
		switch {
		case strings.HasPrefix(name, "stpq_bufferpool_hits_total{"):
			poolHits += v
		case strings.HasPrefix(name, "stpq_bufferpool_misses_total{"):
			poolMisses += v
		}
	}
	if poolHits == 0 || poolMisses == 0 {
		t.Errorf("buffer-pool hits %d, misses %d: want both recorded in metrics", poolHits, poolMisses)
	}
	h, ok := snap.Histograms[`stpq_query_seconds{alg="stps",variant="range"}`]
	if !ok {
		t.Fatal("latency histogram missing")
	}
	if h.Count != 1 || len(h.Counts) != len(h.Bounds)+1 {
		t.Fatalf("histogram count %d, counts %d for %d bounds", h.Count, len(h.Counts), len(h.Bounds))
	}

	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snap, back) {
		t.Error("metrics snapshot did not survive JSON round trip")
	}

	var buf bytes.Buffer
	if err := db.WriteMetricsPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE stpq_queries_total counter",
		`stpq_queries_total{alg="stps",variant="range"} 1`,
		`stpq_query_seconds_count{alg="stps",variant="range"} 1`,
		`le="+Inf"`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") < 1 {
			t.Errorf("malformed Prometheus line %q", line)
		}
	}
}

// Stats.HitRatio-style accounting at the DB level: a repeated query on a
// warm cache must hit the pool, so its physical reads drop to zero while
// logical reads stay put.
func TestWarmCacheReadsAccounted(t *testing.T) {
	db := paperDB(t, Config{})
	_, cold, err := db.TopK(paperQuery(3, STPS))
	if err != nil {
		t.Fatal(err)
	}
	_, warm, err := db.TopK(paperQuery(3, STPS))
	if err != nil {
		t.Fatal(err)
	}
	if warm.LogicalReads != cold.LogicalReads {
		t.Errorf("warm logical reads %d != cold %d", warm.LogicalReads, cold.LogicalReads)
	}
	if warm.PhysicalReads != 0 {
		t.Errorf("warm query did %d physical reads, want 0", warm.PhysicalReads)
	}
}
