package cluster

// pipeline_test.go keeps the query pipeline single from the outermost
// layer, where every codec and every event log is in reach: a field of
// stpq.Query that one of the codecs forgets fails the tripwire, a served
// request leaves exactly one event on the node that ran it, and the
// coordinator's record of a request agrees with the nodes' records of it.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"stpq"
	"stpq/internal/obs"
	"stpq/internal/serve"
	"stpq/internal/shard"
)

// nonSemanticFields are the fields of stpq.Query that may not move the
// cache fingerprint: they say who asks and what to record, not what the
// answer is.
var nonSemanticFields = map[string]bool{"RequestID": true, "Trace": true}

// fullQuery sets every field of stpq.Query to a valid non-zero value; the
// tripwire fails on a field it leaves zero, so a new field has to be added
// here — and then has to survive everything below.
func fullQuery() stpq.Query {
	return stpq.Query{
		K: 7, Radius: 0.125, Lambda: 0.25,
		Keywords:   map[string][]string{"food": {"pizza", "sushi"}, "cafes": {"tea"}},
		Variant:    stpq.Influence,
		Algorithm:  stpq.STDS,
		Similarity: stpq.CosineSim,
		RequestID:  "req-tripwire",
		Trace:      stpq.TraceOn,
		Mode:       stpq.ModeApprox,
		Recall:     0.75,
	}
}

// perturbed returns q with the named field changed to a different value.
func perturbed(t *testing.T, q stpq.Query, field string) stpq.Query {
	t.Helper()
	f := reflect.ValueOf(&q).Elem().FieldByName(field)
	switch f.Kind() {
	case reflect.Int:
		f.SetInt(f.Int() + 1)
	case reflect.Float64:
		f.SetFloat(f.Float() / 2)
	case reflect.String:
		if field == "Mode" { // an enumeration on the wire: flip it
			f.SetString("")
			break
		}
		f.SetString(f.String() + "x")
	case reflect.Map:
		f.Set(reflect.ValueOf(map[string][]string{"food": {"ramen"}}))
	default:
		t.Fatalf("field %s has kind %v: teach perturbed about it", field, f.Kind())
	}
	return q
}

func TestQueryFieldThreading(t *testing.T) {
	base := fullQuery()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if reflect.ValueOf(base).Field(i).IsZero() {
			t.Errorf("fullQuery leaves %s zero", name)
			continue
		}
		q := perturbed(t, base, name)

		// The cache key.
		if moved := serve.Fingerprint(q) != serve.Fingerprint(base); moved == nonSemanticFields[name] {
			t.Errorf("%s: fingerprint moved = %v, non-semantic = %v", name, moved, nonSemanticFields[name])
		}

		// The wire codec. Trace travels as a flag the coordinator owns, so
		// only On comes back as sent.
		q.Trace = stpq.TraceOn
		wq, err := decodeQuery(encodeQuery(toWire(q)))
		if err != nil {
			t.Fatal(err)
		}
		if back := toQuery(wq); !reflect.DeepEqual(back, q) {
			t.Errorf("%s lost on the wire:\n sent %+v\n got  %+v", name, q, back)
		}
	}

	// The JSON codec: a request with every field set decodes to a query
	// with every field set. (QueryRequest spells enums as strings and takes
	// the request ID from a header, so the two sides are compared by
	// "nothing was left zero", not field by field.)
	req := serve.QueryRequest{
		K: 7, Radius: 0.125, Lambda: 0.25,
		Keywords: map[string][]string{"food": {"pizza"}},
		Variant:  "influence", Algorithm: "stds", Similarity: "cosine",
		Mode: "approx", Recall: 0.75, Trace: true, Explain: true,
	}
	for rv, i := reflect.ValueOf(req), 0; i < rv.NumField(); i++ {
		if rv.Field(i).IsZero() {
			t.Errorf("the request fixture leaves QueryRequest.%s zero", rv.Type().Field(i).Name)
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	hr.Header.Set("X-Request-Id", "req-tripwire")
	_, q, ok := serve.DecodeQuery(httptest.NewRecorder(), hr)
	if !ok {
		t.Fatal("DecodeQuery rejected the full request")
	}
	for i := 0; i < typ.NumField(); i++ {
		if reflect.ValueOf(q).Field(i).IsZero() {
			t.Errorf("stpq.Query.%s cannot be set through POST /query", typ.Field(i).Name)
		}
	}
}

// startCells is startCluster keeping each node's DB, so a test can read
// the nodes' own event logs beside the coordinator's.
func startCells(t *testing.T, cfg stpq.Config, cells int) (*Coordinator, []*stpq.DB) {
	t.Helper()
	objs, food, cafes, _ := testData(7)
	m, err := BuildMap(objs, make([]string, cells), shard.HilbertRuns)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*stpq.DB, cells)
	for i := range dbs {
		dbs[i] = buildCell(t, cfg, m.PartitionObjects(objs, i), food, cafes)
		_, m.Nodes[i].Leader = startNode(t, i, dbs[i], 0)
	}
	coord, err := NewCoordinator(CoordinatorConfig{Map: m, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord, dbs
}

// eventsOf returns db's events for one request, newest first.
func eventsOf(db *stpq.DB, requestID string) []stpq.QueryEvent {
	var out []stpq.QueryEvent
	for _, ev := range db.RecentQueries(0) {
		if ev.RequestID == requestID {
			out = append(out, ev)
		}
	}
	return out
}

// TestOneEventPerServedQuery: Service.Do records one event for a miss and
// one (marked cache_hit) for the hit that follows; a cluster node records
// one for the query the coordinator sends it and none for the bound probe
// before it — each with the request's ID and shape.
func TestOneEventPerServedQuery(t *testing.T) {
	objs, food, cafes, _ := testData(7)
	q := stpq.Query{K: 5, Radius: 0.1, Lambda: 0.5, RequestID: "req-served",
		Keywords: map[string][]string{"food": {"pizza"}, "cafes": {"tea"}}}
	shape := stpq.QueryShape(q).String()

	db := buildCell(t, stpq.Config{PageSize: 1024}, objs, food, cafes)
	svc, err := serve.New(db, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	for i, wantHit := range []bool{false, true} {
		resp, err := svc.Do(context.Background(), q)
		if err != nil || resp.Cached != wantHit {
			t.Fatalf("Do #%d: cached %v, err %v", i, resp.Cached, err)
		}
		evs := eventsOf(db, q.RequestID)
		if len(evs) != i+1 {
			t.Fatalf("Do #%d left %d events", i, len(evs))
		}
		if evs[0].CacheHit != wantHit || evs[0].Shape != shape {
			t.Errorf("Do #%d event: hit %v shape %q, want %v %q", i, evs[0].CacheHit, evs[0].Shape, wantHit, shape)
		}
	}

	coord, dbs := startCells(t, stpq.Config{PageSize: 1024}, 2)
	resp, err := coord.Do(q)
	if err != nil {
		t.Fatal(err)
	}
	queried := 0
	for i, cell := range dbs {
		evs := eventsOf(cell, q.RequestID)
		if len(evs) > 1 {
			t.Errorf("node %d recorded %d events for one request", i, len(evs))
		}
		for _, ev := range evs {
			queried++
			if ev.Shape != shape {
				t.Errorf("node %d event shape %q, want %q", i, ev.Shape, shape)
			}
		}
	}
	if queried != resp.Stats.ShardFanout {
		t.Errorf("%d node events for a fan-out of %d", queried, resp.Stats.ShardFanout)
	}
}

// TestCoordinatorAndNodesAgreeOnShape: for every algorithm, variant and
// mode, the coordinator's event for a request and the events of the nodes
// that served it carry the same shape label — one definition
// (stpq.QueryShape), not one per process.
func TestCoordinatorAndNodesAgreeOnShape(t *testing.T) {
	coord, dbs := startCells(t, stpq.Config{IndexKind: stpq.IR2, SignatureBits: 8, PageSize: 1024}, 2)
	for _, alg := range []stpq.Algorithm{stpq.STPS, stpq.STDS} {
		for _, variant := range []stpq.Variant{stpq.Range, stpq.Influence, stpq.NearestNeighbor} {
			for _, mode := range []string{stpq.ModeExact, stpq.ModeApprox} {
				q := stpq.Query{K: 6, Radius: 0.07, Lambda: 0.5, Variant: variant, Algorithm: alg, Mode: mode,
					Keywords: map[string][]string{"food": {"pizza", "unheard-of"}, "cafes": nil}}
				q.RequestID = "req-" + stpq.QueryShape(q).String()
				if _, err := coord.Do(q); err != nil {
					t.Fatalf("%v %v %s: %v", alg, variant, mode, err)
				}
				ev := coord.RecentQueries(1)[0]
				if ev.RequestID != q.RequestID || ev.Shape == "" {
					t.Fatalf("%v %v %s: coordinator event %+v", alg, variant, mode, ev)
				}
				seen := 0
				for i, cell := range dbs {
					for _, nev := range eventsOf(cell, q.RequestID) {
						seen++
						if nev.Shape != ev.Shape {
							t.Errorf("%v %v %s: node %d says %q, coordinator says %q", alg, variant, mode, i, nev.Shape, ev.Shape)
						}
					}
				}
				if seen == 0 {
					t.Errorf("%v %v %s: no node recorded the request", alg, variant, mode)
				}
			}
		}
	}
}

// TestCoordinatorRejectsApproxOnExactNodes: nodes over exact-bitmap indexes
// refuse approx mode, and the coordinator passes the refusal on as a 400.
func TestCoordinatorRejectsApproxOnExactNodes(t *testing.T) {
	coord, _ := startCells(t, stpq.Config{PageSize: 1024}, 2)
	body := `{"k":5,"radius":0.1,"lambda":0.5,"mode":"approx","keywords":{"food":["pizza"],"cafes":["tea"]}}`
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewBufferString(body)))
	if rec.Code != http.StatusBadRequest || !bytes.Contains(rec.Body.Bytes(), []byte("SignatureBits")) {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
}

// TestWaveWidth: a warm shape whose recorded cost is at most cheapLatency
// runs one node per wave; a cold or expensive one, or a single node, keeps
// the configured width.
func TestWaveWidth(t *testing.T) {
	q := stpq.Query{K: 5, Radius: 0.1, Lambda: 0.5, Keywords: map[string][]string{"food": {"pizza"}}}
	cases := []struct {
		name       string
		nodes, par int
		samples    int
		cost       time.Duration
		want       int
	}{
		{"one node", 1, 1, obs.MinPredictSamples, time.Millisecond, 1},
		{"cold", 4, 4, obs.MinPredictSamples - 1, time.Millisecond, 4},
		{"cheap warm", 4, 4, obs.MinPredictSamples, time.Millisecond, 1},
		{"boundary is cheap", 4, 4, obs.MinPredictSamples, cheapLatency, 1},
		{"expensive warm", 4, 4, obs.MinPredictSamples, cheapLatency + time.Microsecond, 4},
		{"parallelism 1", 4, 1, obs.MinPredictSamples, time.Hour, 1},
	}
	for _, c := range cases {
		coord := &Coordinator{
			cfg:   CoordinatorConfig{Parallelism: c.par},
			nodes: make([]*nodeHandle, c.nodes),
			tel:   obs.NewTelemetry(-1, -1, 0, 0),
		}
		for i := 0; i < c.samples; i++ {
			coord.tel.Shapes.Observe(stpq.QueryShape(q), c.cost, 0, 0, 0, 0)
		}
		if got := coord.waveWidth(q); got != c.want {
			t.Errorf("%s: waveWidth = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestCoordinatorReportsApproxStats: the approx counters the coordinator
// sums from its nodes reach the client in the /query response.
func TestCoordinatorReportsApproxStats(t *testing.T) {
	coord, _ := startCells(t, stpq.Config{IndexKind: stpq.IR2, SignatureBits: 8, PageSize: 1024}, 2)
	body := `{"k":5,"radius":0.1,"lambda":0.5,"mode":"approx","keywords":{"food":["pizza","sushi"],"cafes":["tea"]}}`
	rec := httptest.NewRecorder()
	coord.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewBufferString(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var out serve.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Stats.ApproxCandidates <= 0 {
		t.Errorf("approx query through the coordinator reports approx_candidates = %d: %s",
			out.Stats.ApproxCandidates, rec.Body)
	}
}
