package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stpq"
)

func testServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	db := testDB(t, stpq.Config{}, 200, 200)
	svc, err := New(db, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return svc, srv
}

func postQuery(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
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

func jsonCopy(dst *strings.Builder, resp *http.Response) (int64, error) {
	b := make([]byte, 64<<10)
	var n int64
	for {
		m, err := resp.Body.Read(b)
		dst.Write(b[:m])
		n += int64(m)
		if err != nil {
			return n, nil
		}
	}
}

func TestHTTPQuery(t *testing.T) {
	_, srv := testServer(t)
	body := `{"k":5,"radius":0.1,"lambda":0.5,"keywords":{"restaurants":["kw1","kw2"],"cafes":["kw3"]}}`
	resp, data := postQuery(t, srv.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out QueryResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("bad JSON %q: %v", data, err)
	}
	if len(out.Results) == 0 {
		t.Error("no results")
	}
	if out.Generation != 1 {
		t.Errorf("generation = %d, want 1", out.Generation)
	}
	if out.Stats.LogicalReads < out.Stats.PhysicalReads {
		t.Errorf("logical reads %d < physical reads %d", out.Stats.LogicalReads, out.Stats.PhysicalReads)
	}
	if out.Stats.LogicalReads == 0 {
		t.Error("per-query stats missing: zero logical reads")
	}

	// Same query again: cache hit visible in the response.
	resp, data = postQuery(t, srv.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Error("repeat query not served from cache")
	}
}

func TestHTTPQueryErrors(t *testing.T) {
	_, srv := testServer(t)
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"k":0,"radius":0.1}`, http.StatusBadRequest},
		{`{"k":5,"radius":-1}`, http.StatusBadRequest},
		{`{"k":5,"radius":0.1,"lambda":3}`, http.StatusBadRequest},
		{`{"k":5,"radius":0.1,"keywords":{"nope":["kw1"]}}`, http.StatusBadRequest},
		{`{"k":5,"radius":0.1,"variant":"bogus"}`, http.StatusBadRequest},
		{`{"k":5,"radius":0.1,"algorithm":"bogus"}`, http.StatusBadRequest},
		{`{"k":5,"radius":0.1,"algorithm":"auto"}`, http.StatusBadRequest},
		{`{"k":5,"radius":0.1,"similarity":"bogus"}`, http.StatusBadRequest},
		{`{"k":5,"radius":0.1,"bogus_field":1}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, data := postQuery(t, srv.URL, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("body %q: status %d, want %d (%s)", c.body, resp.StatusCode, c.want, data)
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("body %q: error payload %q not JSON", c.body, data)
		}
	}

	if _, data := postQuery(t, srv.URL, `{"k":5,"radius":0.1,"algorithm":"auto"}`); !strings.Contains(string(data), `unknown algorithm \"auto\"`) {
		t.Errorf("algorithm auto: error %s does not name the algorithm", data)
	}

	// GET on /query is not allowed.
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", resp.StatusCode)
	}
}

// TestHTTPRejectsRemovedModeFields: "mode" and "recall" are not request
// fields. A client that still sends them gets a 400 naming the field, and
// the query never reaches the engine.
func TestHTTPRejectsRemovedModeFields(t *testing.T) {
	db := testDB(t, stpq.Config{IndexKind: stpq.IR2}, 200, 200)
	svc, err := New(db, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })
	body := `{"k":5,"radius":0.1,"lambda":0.5,"keywords":{"restaurants":["kw1"],"cafes":["kw3"]}%s}`
	if resp, data := postQuery(t, srv.URL, fmt.Sprintf(body, "")); resp.StatusCode != http.StatusOK {
		t.Fatalf("plain query: status %d: %s", resp.StatusCode, data)
	}
	for _, c := range []struct{ name, field string }{
		{"mode", `"mode":"approx"`},
		{"recall", `"recall":0.9`},
	} {
		resp, data := postQuery(t, srv.URL, fmt.Sprintf(body, ","+c.field))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.field, resp.StatusCode, data)
		}
		if !strings.Contains(string(data), `unknown field \"`+c.name+`\"`) {
			t.Errorf("%s: error %s does not name the field", c.field, data)
		}
	}
	if n := len(db.RecentQueries(10)); n != 1 {
		t.Errorf("%d query events, want only the plain query's", n)
	}
	if n := svc.Metrics().Counter("stpq_serve_queries_total").Value(); n != 1 {
		t.Errorf("stpq_serve_queries_total = %d, want 1", n)
	}
}

// TestHTTPOmittedAlgorithmIsSTPS: a request that names no algorithm runs
// STPS and shares its result-cache slot with one that names "stps".
func TestHTTPOmittedAlgorithmIsSTPS(t *testing.T) {
	_, srv := testServer(t)
	body := `{"k":5,"radius":0.1,"lambda":0.5,"keywords":{"restaurants":["kw1"],"cafes":["kw3"]}%s}`
	for i, alg := range []string{"", `,"algorithm":"stps"`} {
		resp, data := postQuery(t, srv.URL, fmt.Sprintf(body, alg))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		var out QueryResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cached != (i == 1) {
			t.Errorf("request %d (algorithm %q): cached %v", i, alg, out.Cached)
		}
	}
}

// TestHTTPStatusMapping pins each service error's status code and the
// machine-readable reason its error body carries.
func TestHTTPStatusMapping(t *testing.T) {
	cases := []struct {
		err    error
		want   int
		reason string
	}{
		{stpq.ErrInvalidQuery, http.StatusBadRequest, ""},
		{stpq.ErrUnknownFeatureSet, http.StatusBadRequest, ""},
		{ErrOverloaded, http.StatusTooManyRequests, "queue-full"},
		{ErrDeadline, http.StatusGatewayTimeout, "deadline"},
		{ErrClosed, http.StatusServiceUnavailable, ""},
		{stpq.ErrNotBuilt, http.StatusServiceUnavailable, ""},
	}
	for _, c := range cases {
		if got := statusOf(c.err); got != c.want {
			t.Errorf("statusOf(%v) = %d, want %d", c.err, got, c.want)
		}
		if got := reasonOf(c.err); got != c.reason {
			t.Errorf("reasonOf(%v) = %q, want %q", c.err, got, c.reason)
		}
	}
}

func TestHTTPHealthz(t *testing.T) {
	svc, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz status %d, want 200", resp.StatusCode)
	}
	svc.Close()
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after Close: status %d, want 503", resp.StatusCode)
	}
}

func TestHTTPMetrics(t *testing.T) {
	_, srv := testServer(t)
	// One miss, one hit.
	body := `{"k":3,"radius":0.1,"keywords":{"restaurants":["kw1"]}}`
	postQuery(t, srv.URL, body)
	postQuery(t, srv.URL, body)

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	jsonCopy(&buf, resp)
	text := buf.String()
	for _, want := range []string{
		"stpq_serve_cache_hits_total 1",
		"stpq_serve_cache_misses_total 1",
		"stpq_serve_queries_total 2",
		"stpq_serve_latency_seconds",
		"stpq_bufferpool", // the DB registry is included too
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestHTTPInfo(t *testing.T) {
	_, srv := testServer(t)
	resp, err := http.Get(srv.URL + "/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	jsonCopy(&buf, resp)
	var info Info
	if err := json.Unmarshal([]byte(buf.String()), &info); err != nil {
		t.Fatal(err)
	}
	if info.Objects != 200 {
		t.Errorf("objects = %d, want 200", info.Objects)
	}
	if len(info.FeatureSets) != 2 || info.FeatureSets["restaurants"] != 200 {
		t.Errorf("feature sets = %v", info.FeatureSets)
	}
	if len(info.Keywords["restaurants"]) == 0 {
		t.Error("no keywords for restaurants")
	}
	if info.Generation != 1 {
		t.Errorf("generation = %d, want 1", info.Generation)
	}
}
