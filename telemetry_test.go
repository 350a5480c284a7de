package stpq

// telemetry_test.go is the end-to-end check of the observability tentpole:
// request IDs propagating from the public Query through core execution —
// over one part, over shards, over base + delta — into event records and
// span trees; the slow-query log; EXPLAIN, which executes nothing; and the
// WAL/ingest metrics.

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestEventLogRecordsEveryQuery(t *testing.T) {
	db := paperDB(t, Config{})
	for i := 0; i < 4; i++ {
		if _, _, err := db.TopK(paperQuery(3, STPS)); err != nil {
			t.Fatal(err)
		}
	}
	evs := db.RecentQueries(0)
	if len(evs) != 4 {
		t.Fatalf("RecentQueries = %d events, want 4", len(evs))
	}
	ev := evs[0]
	if ev.Algorithm != "stps" || ev.Variant != "range" || ev.K != 3 || ev.Outcome != "ok" {
		t.Errorf("event = %+v", ev)
	}
	if ev.Shape == "" || !strings.Contains(ev.Shape, "stps|range|") {
		t.Errorf("event shape = %q", ev.Shape)
	}
	if ev.Duration <= 0 {
		t.Errorf("event duration = %v", ev.Duration)
	}
	if ev.Seq <= evs[1].Seq {
		t.Errorf("events not newest-first: seq %d then %d", ev.Seq, evs[1].Seq)
	}
	if ev.Sampled || ev.Trace != nil {
		t.Errorf("unsampled query kept a trace: %+v", ev)
	}
	// Failed queries are recorded too, without polluting the shape table.
	shapes := len(db.QueryShapes())
	bad := paperQuery(3, STPS)
	bad.K = -1
	if _, _, err := db.TopK(bad); err == nil {
		t.Fatal("expected validation error")
	}
	// Validation failures never reach the engine; force an engine-level
	// error instead via an unknown feature set in Keywords.
	bad = paperQuery(3, STPS)
	bad.Keywords["nope"] = []string{"x"}
	if _, _, err := db.TopK(bad); err == nil {
		t.Fatal("expected unknown-set error")
	}
	if got := len(db.QueryShapes()); got != shapes {
		t.Errorf("error grew the shape table: %d -> %d", shapes, got)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	db := paperDB(t, Config{})
	q := paperQuery(3, STPS)
	q.RequestID = "req-e2e-unsharded"
	q.Trace = true
	_, st, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == nil || st.Trace.RequestID != q.RequestID {
		t.Fatalf("stats trace request id = %+v", st.Trace)
	}
	ev := db.RecentQueries(1)[0]
	if ev.RequestID != q.RequestID {
		t.Errorf("event request id = %q", ev.RequestID)
	}
	if !ev.Sampled || ev.Trace == nil || ev.Trace.RequestID != q.RequestID {
		t.Errorf("event trace = %+v", ev.Trace)
	}
}

func TestRequestIDPropagationSharded(t *testing.T) {
	db := paperDB(t, Config{ShardCount: 2})
	q := paperQuery(3, STPS)
	q.RequestID = "req-e2e-sharded"
	q.Trace = true
	_, st, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == nil || st.Trace.RequestID != q.RequestID {
		t.Fatalf("stats trace request id = %+v", st.Trace)
	}
	if st.ShardFanout < 1 || st.ShardFanout+st.ShardPruned != 2 {
		t.Errorf("stats fanout/pruned = %d/%d", st.ShardFanout, st.ShardPruned)
	}
	ev := db.RecentQueries(1)[0]
	if ev.RequestID != q.RequestID || ev.Trace == nil || ev.Trace.RequestID != q.RequestID {
		t.Errorf("sharded event = req %q trace %+v", ev.RequestID, ev.Trace)
	}
	// The event carries the shard counters: this is the shard-level view
	// joining the same request ID.
	if ev.ShardFanout != st.ShardFanout || ev.ShardPruned != st.ShardPruned {
		t.Errorf("event fanout/pruned = %d/%d, stats %d/%d",
			ev.ShardFanout, ev.ShardPruned, st.ShardFanout, st.ShardPruned)
	}
}

func TestRequestIDPropagationThroughOverlay(t *testing.T) {
	db := paperDB(t, Config{WALDir: t.TempDir()})
	// Leave a mutation pending: queries now run over base + delta parts.
	if err := db.Apply([]Mutation{{
		Op: OpUpsertObject, Object: &Object{ID: 99, X: 0.6, Y: 0.55},
	}}); err != nil {
		t.Fatal(err)
	}
	if db.PendingOps() == 0 {
		t.Fatal("mutation did not land in the delta")
	}
	q := paperQuery(3, STPS)
	q.RequestID = "req-e2e-overlay"
	q.Trace = true
	_, st, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == nil || st.Trace.RequestID != q.RequestID {
		t.Fatalf("overlay stats trace = %+v", st.Trace)
	}
	ev := db.RecentQueries(1)[0]
	if ev.RequestID != q.RequestID || ev.Trace == nil || ev.Trace.RequestID != q.RequestID {
		t.Errorf("overlay event = req %q trace %+v", ev.RequestID, ev.Trace)
	}
}

func TestSlowQueryCapture(t *testing.T) {
	// A 1ns threshold forces every query over the line: each must land in
	// the slow log with a complete span tree despite sampling being off.
	db := paperDB(t, Config{})
	if err := db.SetTraceSampling(0, time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TopK(paperQuery(3, STPS)); err != nil {
		t.Fatal(err)
	}
	slow := db.SlowQueries(0)
	if len(slow) != 1 {
		t.Fatalf("slow log holds %d events, want 1", len(slow))
	}
	ev := slow[0]
	if !ev.Slow || ev.Trace == nil {
		t.Fatalf("slow event lacks its trace: %+v", ev)
	}
	if ev.Sampled {
		t.Error("slow-only capture must not claim a sampling hit")
	}
	// The regular event log carries the same record.
	if recent := db.RecentQueries(1)[0]; !recent.Slow || recent.Trace == nil {
		t.Errorf("event-log copy lost the slow capture: %+v", recent)
	}
}

func TestSlowThresholdKeepsFastQueriesLean(t *testing.T) {
	// With a threshold no real query crosses, traces are collected
	// provisionally but must be trimmed from both the event record and the
	// query's public Stats.
	db := paperDB(t, Config{})
	if err := db.SetTraceSampling(0, time.Hour); err != nil {
		t.Fatal(err)
	}
	_, st, err := db.TopK(paperQuery(3, STPS))
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace != nil {
		t.Errorf("provisional trace leaked into Stats: %+v", st.Trace)
	}
	ev := db.RecentQueries(1)[0]
	if ev.Slow || ev.Sampled || ev.Trace != nil {
		t.Errorf("provisional trace leaked into the event: %+v", ev)
	}
	if n := len(db.SlowQueries(0)); n != 0 {
		t.Errorf("fast query reached the slow log: %d entries", n)
	}
}

func TestTraceSampling(t *testing.T) {
	db := paperDB(t, Config{})
	if err := db.SetTraceSampling(1, 0); err != nil {
		t.Fatal(err)
	}
	_, st, err := db.TopK(paperQuery(3, STPS))
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace == nil {
		t.Fatal("rate-1 sampling left Stats without a trace")
	}
	ev := db.RecentQueries(1)[0]
	if !ev.Sampled || ev.Trace == nil {
		t.Errorf("rate-1 sampling left the event unsampled: %+v", ev)
	}
	// Rate 0 turns the sampler off again for the next query.
	if err := db.SetTraceSampling(0, 0); err != nil {
		t.Fatal(err)
	}
	_, st, err = db.TopK(paperQuery(3, STPS))
	if err != nil {
		t.Fatal(err)
	}
	if st.Trace != nil || db.RecentQueries(1)[0].Trace != nil {
		t.Error("rate-0 query still collected a trace")
	}
}

// TestExplainRunsNothing: Explain describes the plan and the query's shape
// and executes nothing — no QueryShapes row appears or moves.
func TestExplainRunsNothing(t *testing.T) {
	db := paperDB(t, Config{})
	q := paperQuery(3, STPS)

	ex, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Algorithm != "stps" || ex.Variant != "range" || ex.Index != "srt" {
		t.Errorf("explain header = %+v", ex)
	}
	if ex.KeywordSets != 2 || ex.FeatureSets != 2 {
		t.Errorf("keyword sets = %d/%d", ex.KeywordSets, ex.FeatureSets)
	}
	const want = "EXPLAIN stps range (srt index, jaccard similarity)\n" +
		"  k=3 radius=0.35 keyword sets: 2/2 non-empty\n" +
		"  shape: stps|range|jaccard|k=3|r~0.354|sets=2\n" +
		"  plan: single engine\n"
	if got := ex.String(); got != want {
		t.Errorf("render:\n%s\nwant:\n%s", got, want)
	}
	if rows := db.QueryShapes(); len(rows) != 0 {
		t.Fatalf("Explain counted as an execution: %+v", rows)
	}

	if _, _, err := db.TopK(q); err != nil {
		t.Fatal(err)
	}
	before := db.QueryShapes()
	if len(before) != 1 || before[0].Shape != ex.Shape || before[0].Samples != 1 {
		t.Fatalf("one execution of shape %q: rows %+v", ex.Shape, before)
	}
	if _, err := db.Explain(q); err != nil {
		t.Fatal(err)
	}
	if after := db.QueryShapes(); !reflect.DeepEqual(after, before) {
		t.Errorf("Explain moved the shape statistics: %+v -> %+v", before, after)
	}
}

func TestExplainShardedPlan(t *testing.T) {
	db := paperDB(t, Config{ShardCount: 2})
	ex, err := db.Explain(paperQuery(3, STPS))
	if err != nil {
		t.Fatal(err)
	}
	if len(ex.Shards) != 2 {
		t.Fatalf("sharded plan = %+v", ex)
	}
	// Every shard is listed once, with its size and an admissible bound: the
	// objects add up, and no answer scores above the best bound.
	objects, best := 0, 0.0
	for i, sh := range ex.Shards {
		if sh.ID != i || sh.Objects < 1 {
			t.Errorf("shard %d listed as %+v", i, sh)
		}
		objects += sh.Objects
		best = max(best, sh.Bound)
	}
	if objects != 10 {
		t.Errorf("shards hold %d objects, want 10: %+v", objects, ex.Shards)
	}
	res, _, err := db.TopK(paperQuery(3, STPS))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 || res[0].Score > best {
		t.Errorf("top score %v above the best shard bound %v", res, best)
	}
	if s := ex.String(); !strings.Contains(s, "one engine over 2 shards") {
		t.Errorf("sharded render:\n%s", s)
	}
}

func TestWALAndDeltaMetrics(t *testing.T) {
	db := paperDB(t, Config{WALDir: t.TempDir()})
	// Two Apply calls: each batch is one durable WAL record.
	for i, mut := range []Mutation{
		{Op: OpUpsertObject, Object: &Object{ID: 90, X: 0.2, Y: 0.2}},
		{Op: OpUpsertObject, Object: &Object{ID: 91, X: 0.3, Y: 0.3}},
	} {
		if err := db.Apply([]Mutation{mut}); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	m := db.Metrics()
	if n := m.Counters["stpq_wal_appends_total"]; n != 2 {
		t.Errorf("wal appends = %d, want 2", n)
	}
	if b := m.Counters["stpq_wal_bytes_total"]; b <= 0 {
		t.Errorf("wal bytes = %d", b)
	}
	if f := m.Histograms["stpq_ingest_wal_fsync_seconds"]; f.Count < 1 {
		t.Errorf("fsync histogram count = %d", f.Count)
	}
	if g := m.Gauges["stpq_ingest_delta_objects"]; g != 2 {
		t.Errorf("delta objects gauge = %v", g)
	}
	// A merge empties the delta and zeroes the gauge.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if g := db.Metrics().Gauges["stpq_ingest_delta_objects"]; g != 0 {
		t.Errorf("delta gauge after flush = %v", g)
	}
}

func TestShapeStatsInPrometheusExport(t *testing.T) {
	db := paperDB(t, Config{})
	for i := 0; i < 3; i++ {
		if _, _, err := db.TopK(paperQuery(3, STPS)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.WriteMetricsPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `stpq_shape_queries_total{shape="stps|range|jaccard|`) {
		t.Errorf("/metrics missing shape stats:\n%s", out)
	}
}
