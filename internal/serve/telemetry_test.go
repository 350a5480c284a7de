package serve

// telemetry_test.go covers the serve side of the observability surface:
// request-ID admission and echo, the /debug endpoints, the explain request
// field, and how tracing interacts with the result cache.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stpq"
)

// postQueryWithHeader is postQuery plus request headers.
func postQueryWithHeader(t *testing.T, url, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	if _, err := jsonCopy(&buf, resp); err != nil {
		t.Fatal(err)
	}
	return resp, []byte(buf.String())
}

const telemetryQueryBody = `{"k":5,"radius":0.1,"lambda":0.5,"keywords":{"restaurants":["kw1","kw2"],"cafes":["kw3"]}}`

func TestHTTPRequestIDEchoed(t *testing.T) {
	svc, srv := testServer(t)
	resp, data := postQueryWithHeader(t, srv.URL, telemetryQueryBody,
		map[string]string{"X-Request-Id": "req-proxy-77"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "req-proxy-77" {
		t.Errorf("echoed header = %q", got)
	}
	var out QueryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID != "req-proxy-77" {
		t.Errorf("body request_id = %q", out.RequestID)
	}
	// The same ID keys the query's event record in the DB's log.
	evs := svc.DB().RecentQueries(1)
	if len(evs) != 1 || evs[0].RequestID != "req-proxy-77" {
		t.Errorf("event log = %+v", evs)
	}
}

func TestHTTPRequestIDGenerated(t *testing.T) {
	_, srv := testServer(t)
	resp, data := postQuery(t, srv.URL, telemetryQueryBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	hdr := resp.Header.Get("X-Request-Id")
	if !strings.HasPrefix(hdr, "req-") {
		t.Errorf("generated header = %q", hdr)
	}
	var out QueryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.RequestID != hdr {
		t.Errorf("body request_id %q != header %q", out.RequestID, hdr)
	}
}

// TestHTTPExplain: "explain":true returns the plan and the query's shape,
// and executes nothing — with the cache off, only the real query counts.
func TestHTTPExplain(t *testing.T) {
	db := testDB(t, stpq.Config{}, 200, 200)
	svc, err := New(db, Config{Workers: 2, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })

	explainBody := strings.TrimSuffix(telemetryQueryBody, "}") + `,"explain":true}`
	resp, data := postQuery(t, srv.URL, explainBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out struct {
		Explain *stpq.Explain `json:"explain"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Explain == nil || out.Explain.Algorithm != "stps" || out.Explain.Variant != "range" || out.Explain.Shape == "" {
		t.Fatalf("explain = %s", data)
	}
	if shapes := db.QueryShapes(); len(shapes) != 0 {
		t.Fatalf("explain executed the query: %+v", shapes)
	}

	if resp, data := postQuery(t, srv.URL, telemetryQueryBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, data)
	}
	if _, data = postQuery(t, srv.URL, explainBody); json.Unmarshal(data, &out) != nil {
		t.Fatalf("bad explain: %s", data)
	}
	shapes := db.QueryShapes()
	if len(shapes) != 1 || shapes[0].Shape != out.Explain.Shape || shapes[0].Samples != 1 {
		t.Errorf("one query then an explain of shape %q: %+v", out.Explain.Shape, shapes)
	}
}

func TestHTTPDebugEndpoints(t *testing.T) {
	db := testDB(t, stpq.Config{}, 200, 200)
	if err := db.SetTraceSampling(0, time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	svc, err := New(db, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })

	if resp, data := postQuery(t, srv.URL, telemetryQueryBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, data)
	}
	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	var queries struct {
		Queries []stpq.QueryEvent `json:"queries"`
	}
	getJSON("/debug/queries?n=10", &queries)
	if len(queries.Queries) != 1 {
		t.Fatalf("/debug/queries = %d events", len(queries.Queries))
	}
	ev := queries.Queries[0]
	if ev.RequestID == "" || ev.Shape == "" || ev.Outcome != "ok" {
		t.Errorf("debug event = %+v", ev)
	}

	// The 1ns threshold marks every query slow: /debug/slow serves the
	// same record with its complete span tree.
	var slow struct {
		Queries []stpq.QueryEvent `json:"queries"`
	}
	getJSON("/debug/slow", &slow)
	if len(slow.Queries) != 1 || !slow.Queries[0].Slow || slow.Queries[0].Trace == nil {
		t.Fatalf("/debug/slow = %+v", slow.Queries)
	}
	if slow.Queries[0].RequestID != ev.RequestID {
		t.Errorf("slow record id %q != event id %q", slow.Queries[0].RequestID, ev.RequestID)
	}

	var shapes struct {
		Shapes []stpq.ShapeStat `json:"shapes"`
	}
	getJSON("/debug/shapes", &shapes)
	if len(shapes.Shapes) != 1 || shapes.Shapes[0].Samples != 1 || shapes.Shapes[0].Shape != ev.Shape {
		t.Errorf("/debug/shapes = %+v", shapes.Shapes)
	}
}

func TestHTTPTraceBypassesCache(t *testing.T) {
	_, srv := testServer(t)
	traceBody := strings.TrimSuffix(telemetryQueryBody, "}") + `,"trace":true}`

	// Prime the cache with the untraced twin.
	if resp, data := postQuery(t, srv.URL, telemetryQueryBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("prime: status %d: %s", resp.StatusCode, data)
	}
	var out QueryResponse
	for i := 0; i < 2; i++ {
		_, data := postQuery(t, srv.URL, traceBody)
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached {
			t.Errorf("traced query %d served from cache", i)
		}
		if out.Stats.Trace == nil {
			t.Errorf("traced query %d missing its span tree", i)
		}
	}
	// The untraced twin still hits the cache the traced runs must not have
	// displaced or polluted.
	_, data := postQuery(t, srv.URL, telemetryQueryBody)
	out = QueryResponse{} // omitempty: absent fields keep stale values otherwise
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("untraced twin missed the cache")
	}
	if out.Stats.Trace != nil {
		t.Error("cached response carries a trace")
	}
}

func TestCacheHitRecordsEvent(t *testing.T) {
	svc, srv := testServer(t)
	if resp, data := postQuery(t, srv.URL, telemetryQueryBody); resp.StatusCode != http.StatusOK {
		t.Fatalf("miss: status %d: %s", resp.StatusCode, data)
	}
	resp, data := postQueryWithHeader(t, srv.URL, telemetryQueryBody,
		map[string]string{"X-Request-Id": "req-cache-hit"})
	var out QueryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !out.Cached {
		t.Fatalf("second query not a cache hit: status %d, %s", resp.StatusCode, data)
	}
	ev := svc.DB().RecentQueries(1)[0]
	if !ev.CacheHit || ev.RequestID != "req-cache-hit" {
		t.Errorf("cache-hit event = %+v", ev)
	}
	if ev.Shape == "" {
		t.Error("cache-hit event lost its shape label")
	}
	// Cache hits are attributed but must not count as engine executions.
	shapes := svc.DB().QueryShapes()
	if len(shapes) != 1 || shapes[0].Samples != 1 {
		t.Errorf("shape stats after cache hit = %+v", shapes)
	}
}

func TestServiceTraceSampling(t *testing.T) {
	db := testDB(t, stpq.Config{}, 200, 200)
	// Rate 1: every query is traced, so none touch the cache, and each
	// carries the tree of its own execution.
	if err := db.SetTraceSampling(1, 0); err != nil {
		t.Fatal(err)
	}
	svc, err := New(db, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	var trees []*stpq.Span
	for i := 0; i < 2; i++ {
		resp, err := svc.Do(t.Context(), testQuery(5))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cached {
			t.Errorf("sampled query %d served from cache", i)
		}
		if resp.Stats.Trace == nil {
			t.Errorf("sampled query %d missing its trace", i)
		}
		if resp.RequestID == "" {
			t.Errorf("query %d has no request id", i)
		}
		trees = append(trees, resp.Stats.Trace)
	}
	if trees[0] == trees[1] {
		t.Error("two sampled queries share one span tree")
	}
	ev := db.RecentQueries(1)[0]
	if !ev.Sampled || ev.Trace == nil {
		t.Errorf("sampled event = %+v", ev)
	}
}

// TestCacheHitCarriesNoTrace: a query traced only because it was slow is
// cached without its span tree, so the hit answering its twin carries
// none instead of the first execution's.
func TestCacheHitCarriesNoTrace(t *testing.T) {
	db := testDB(t, stpq.Config{}, 200, 200)
	if err := db.SetTraceSampling(0, time.Nanosecond); err != nil {
		t.Fatal(err)
	}
	svc, err := New(db, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	var resps [2]Response
	for i := range resps {
		if resps[i], err = svc.Do(t.Context(), testQuery(5)); err != nil {
			t.Fatal(err)
		}
	}
	if resps[0].Cached || resps[0].Stats.Trace == nil {
		t.Fatalf("first query: cached %v, trace %v", resps[0].Cached, resps[0].Stats.Trace)
	}
	if !resps[1].Cached {
		t.Fatal("second query missed the cache")
	}
	if resps[1].Stats.Trace != nil {
		t.Errorf("cache hit carries a span tree (the first execution's: %v)", resps[1].Stats.Trace == resps[0].Stats.Trace)
	}
}

// Nearest-neighbour queries ignore the radius, so two that differ only in
// it are one shape: one /debug/shapes row, counted twice.
func TestDebugShapesNNIgnoresRadius(t *testing.T) {
	_, srv := testServer(t)
	for _, radius := range []string{"0.01", "0.5"} {
		body := `{"k":5,"radius":` + radius + `,"lambda":0.5,"variant":"nn","keywords":{"restaurants":["kw1"],"cafes":["kw3"]}}`
		if resp, data := postQuery(t, srv.URL, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("radius %s: status %d: %s", radius, resp.StatusCode, data)
		}
	}
	resp, err := http.Get(srv.URL + "/debug/shapes")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var shapes struct {
		Shapes []stpq.ShapeStat `json:"shapes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&shapes); err != nil {
		t.Fatal(err)
	}
	if len(shapes.Shapes) != 1 || shapes.Shapes[0].Samples != 2 {
		t.Errorf("/debug/shapes = %+v, want one row of 2 samples", shapes.Shapes)
	}
}

// TestAllocsDoCacheHit: Service.Do answering from the result cache —
// snapshot, Prepare, fingerprint, cache copy, the cache-hit event. The
// budget is what the same call allocated before Do carried a Prepared,
// when it validated, fingerprinted and then lowered the query a second time
// just to label the event.
func TestAllocsDoCacheHit(t *testing.T) {
	const budget = 23
	db := testDB(t, stpq.Config{}, 300, 300)
	svc, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	q := testQuery(5)
	q.RequestID = "req-fixed" // minting an ID is not what is measured
	if _, err := svc.Do(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if resp, err := svc.Do(context.Background(), q); err != nil || !resp.Cached {
			t.Fatalf("cached %v, err %v", resp.Cached, err)
		}
	})
	if allocs > budget {
		t.Errorf("Service.Do cache-hit allocs/op = %v, budget %d", allocs, budget)
	}
}
