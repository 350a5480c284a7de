package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stpq"
)

// ingestServer builds a WAL-backed service for the write-path tests.
func ingestServer(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	cfg := stpq.Config{WALDir: t.TempDir(), AutoFlushOps: -1}
	db := testDB(t, cfg, 100, 100)
	svc, err := New(db, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return svc, srv
}

func postIngest(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", "application/json", strings.NewReader(body))
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

func TestHTTPIngest(t *testing.T) {
	svc, srv := ingestServer(t)
	genBefore := mustGen(t, svc)

	body := `{
		"objects": [{"id": 9001, "x": 0.42, "y": 0.42}],
		"delete_objects": [1],
		"features": {"restaurants": [{"id": 9002, "x": 0.43, "y": 0.42, "score": 0.9, "keywords": ["kw1"]}]},
		"delete_features": {"cafes": [101]}
	}`
	resp, data := postIngest(t, srv.URL, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out IngestResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Applied != 4 {
		t.Fatalf("applied = %d, want 4", out.Applied)
	}
	if out.Generation <= genBefore {
		t.Fatalf("generation %d did not advance past %d", out.Generation, genBefore)
	}
	if out.Pending != 4 || out.WALSeq == 0 {
		t.Fatalf("pending=%d walseq=%d", out.Pending, out.WALSeq)
	}
	// The ingested object must be queryable immediately (overlay path).
	qbody := `{"k":3,"radius":0.05,"lambda":0.5,"keywords":{"restaurants":["kw1"]}}`
	qresp, qdata := postQuery(t, srv.URL, qbody)
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d: %s", qresp.StatusCode, qdata)
	}
	var qout QueryResponse
	if err := json.Unmarshal(qdata, &qout); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range qout.Results {
		if r.ID == 9001 {
			found = true
		}
	}
	if !found {
		t.Fatalf("ingested object 9001 missing from query results: %+v", qout.Results)
	}

	// Flush merges the delta; pending drops to zero and the result cache
	// keys on the new generation.
	resp, data = postIngest(t, srv.URL, `{"flush": true, "delete_objects": [2]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Flushed || out.Pending != 0 {
		t.Fatalf("flush response %+v", out)
	}
	if got := svc.Metrics().Snapshot().Counters["stpq_serve_ingested_total"]; got != 5 {
		t.Fatalf("stpq_serve_ingested_total = %d, want 5", got)
	}
}

func TestHTTPIngestErrors(t *testing.T) {
	_, srv := ingestServer(t)
	cases := []struct {
		body   string
		status int
	}{
		{`{`, http.StatusBadRequest},                                  // malformed JSON
		{`{}`, http.StatusBadRequest},                                 // empty batch
		{`{"nope": 1}`, http.StatusBadRequest},                        // unknown field
		{`{"delete_features": {"nope": [1]}}`, http.StatusBadRequest}, // unknown set
		{`{"features": {"cafes": [{"id": 1, "score": 2.0}]}}`, http.StatusBadRequest},
	}
	for i, c := range cases {
		resp, data := postIngest(t, srv.URL, c.body)
		if resp.StatusCode != c.status {
			t.Fatalf("case %d: status %d, want %d (%s)", i, resp.StatusCode, c.status, data)
		}
	}

	// Without a WAL the endpoint reports the capability is absent.
	db := testDB(t, stpq.Config{}, 50, 50)
	svc, err := New(db, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(svc.Handler())
	defer func() { srv2.Close(); svc.Close() }()
	resp, data := postIngest(t, srv2.URL, `{"delete_objects": [1]}`)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("no-WAL ingest: status %d, want 501 (%s)", resp.StatusCode, data)
	}
}

func mustGen(t *testing.T, svc *Service) uint64 {
	t.Helper()
	snap, err := svc.DB().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap.Generation()
}

// TestHTTPWALSegments: GET /wal/segments answers 204 while nothing is
// sealed, then the sealed segment's raw bytes with its first sequence
// number in X-First-Seq; a DB without a WAL answers 501.
func TestHTTPWALSegments(t *testing.T) {
	svc, srv := ingestServer(t)
	get := func(url string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(url + "/wal/segments?from=1")
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
	if resp, _ := get(srv.URL); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("nothing sealed: status %d, want 204", resp.StatusCode)
	}
	if resp, data := postIngest(t, srv.URL, `{"objects":[{"id":9001,"x":0.5,"y":0.5}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", resp.StatusCode, data)
	}
	if err := svc.DB().WALRotate(); err != nil {
		t.Fatal(err)
	}
	first, want, err := svc.DB().WALSealedSegment(1)
	if err != nil {
		t.Fatal(err)
	}
	resp, data := get(srv.URL)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-First-Seq") != "1" || first != 1 || string(data) != string(want) {
		t.Fatalf("sealed segment: status %d, X-First-Seq %q, %d bytes (want %d from seq %d)",
			resp.StatusCode, resp.Header.Get("X-First-Seq"), len(data), len(want), first)
	}

	_, plain := testServer(t)
	if resp, _ := get(plain.URL); resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("no WAL: status %d, want 501", resp.StatusCode)
	}
}
