package cluster

// cluster_test.go drives the full distributed path over real HTTP on
// 127.0.0.1: whole-DB replicas serving their ordinary stpqd handler, a
// coordinator routing each query to one of them, and byte-identical
// answers (and identical page reads) versus the single-process engine;
// then break things — kill replicas, delay them past the hedge threshold,
// overload them, tear WAL segments — and require the coordinator and the
// followers to recover without a single wrong answer.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stpq"
	"stpq/internal/serve"
)

// testData builds deterministic random objects and two feature sets.
func testData(seed int64) ([]stpq.Object, []stpq.Feature, []stpq.Feature, []string) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"pizza", "sushi", "tacos", "ramen", "bagels", "pho", "curry", "bbq",
		"espresso", "latte", "tea", "cocoa"}
	objs := make([]stpq.Object, 400)
	for i := range objs {
		objs[i] = stpq.Object{ID: int64(i), X: rng.Float64(), Y: rng.Float64()}
	}
	mk := func(n int) []stpq.Feature {
		feats := make([]stpq.Feature, n)
		for i := range feats {
			feats[i] = stpq.Feature{
				ID: int64(i), X: rng.Float64(), Y: rng.Float64(), Score: rng.Float64(),
				Keywords: []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
			}
		}
		return feats
	}
	return objs, mk(350), mk(300), words
}

// buildDB builds one DB over the objects and both feature sets.
func buildDB(t testing.TB, cfg stpq.Config, objs []stpq.Object, food, cafes []stpq.Feature) *stpq.DB {
	t.Helper()
	db := stpq.New(cfg)
	db.AddObjects(objs)
	db.AddFeatureSet("food", food)
	db.AddFeatureSet("cafes", cafes)
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	return db
}

// replica is one whole-DB node: its service behind its own HTTP listener.
type replica struct {
	svc *serve.Service
	srv *httptest.Server
}

// addr is the replica's "host:port", as stpqd's -replicas and -follow take it.
func (r replica) addr() string { return r.srv.Listener.Addr().String() }

// served counts the queries the replica's service ran.
func (r replica) served() int64 {
	return r.svc.Metrics().Counter("stpq_serve_queries_total").Value()
}

// startReplica builds a service around db and serves its handler on a
// loopback port; wrap, when non-nil, wraps that handler (fault injection).
func startReplica(t testing.TB, db *stpq.DB, wrap func(http.Handler) http.Handler) replica {
	t.Helper()
	svc, err := serve.New(db, serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() { srv.Close(); svc.Close() })
	return replica{svc, srv}
}

// delayed slows every request by d before the replica sees it.
func delayed(d time.Duration) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(d)
			h.ServeHTTP(w, r)
		})
	}
}

// testCluster is a running local cluster: whole-DB replicas of testData(7)
// and a coordinator over them.
type testCluster struct {
	replicas []replica
	dbs      []*stpq.DB
	coord    *Coordinator
}

// startCluster starts n replicas over cfg and a coordinator over them;
// wraps[i], when given and non-nil, wraps replica i's handler.
func startCluster(t testing.TB, cfg stpq.Config, n int, coordCfg CoordinatorConfig,
	wraps ...func(http.Handler) http.Handler) *testCluster {
	t.Helper()
	objs, food, cafes, _ := testData(7)
	tc := &testCluster{}
	for i := 0; i < n; i++ {
		var wrap func(http.Handler) http.Handler
		if i < len(wraps) {
			wrap = wraps[i]
		}
		db := buildDB(t, cfg, objs, food, cafes)
		r := startReplica(t, db, wrap)
		tc.replicas = append(tc.replicas, r)
		tc.dbs = append(tc.dbs, db)
		coordCfg.Replicas = append(coordCfg.Replicas, r.addr())
	}
	coord, err := NewCoordinator(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	tc.coord = coord
	return tc
}

// requestBody spells q as a POST /query body.
func requestBody(t testing.TB, q stpq.Query) []byte {
	t.Helper()
	body, err := json.Marshal(serve.QueryRequest{
		K: q.K, Radius: q.Radius, Lambda: q.Lambda, Keywords: q.Keywords,
		Variant:    [...]string{"range", "influence", "nn"}[q.Variant],
		Algorithm:  [...]string{"stps", "stds"}[q.Algorithm],
		Similarity: [...]string{"jaccard", "dice", "cosine", "overlap"}[q.Similarity],
		Trace:      q.Trace,
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post serves one POST /query body through the coordinator's handler.
func (c *Coordinator) post(body []byte, requestID string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, req)
	return rec
}

// query runs q through the coordinator's /query and decodes the answer.
func (tc *testCluster) query(t *testing.T, q stpq.Query) serve.QueryResponse {
	t.Helper()
	rec := tc.coord.post(requestBody(t, q), q.RequestID)
	if rec.Code != http.StatusOK {
		t.Fatalf("coordinator /query: status %d: %s", rec.Code, rec.Body)
	}
	var out serve.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// randomQuery draws a query over testData's vocabulary.
func randomQuery(rng *rand.Rand, words []string, variant stpq.Variant, alg stpq.Algorithm) stpq.Query {
	return stpq.Query{
		K: 8, Radius: 0.06, Lambda: 0.5,
		Keywords: map[string][]string{
			"food":  {words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
			"cafes": {words[rng.Intn(len(words))]},
		},
		Variant: variant, Algorithm: alg,
	}
}

// TestClusterMatchesSingle is the distributed equivalence matrix: both
// index kinds, all three variants, both algorithms, 2 and 4 replicas — the
// coordinator's answer must be byte-identical (ids, scores, order) to the
// single-process engine over the same data, and cost the same page reads:
// one replica ran the query, as the single DB did.
func TestClusterMatchesSingle(t *testing.T) {
	objs, food, cafes, words := testData(7)
	for _, kind := range []stpq.IndexKind{stpq.SRT, stpq.IR2} {
		cfg := stpq.Config{IndexKind: kind, PageSize: 1024}
		for _, replicas := range []int{2, 4} {
			// A fresh single DB per cluster: an NN query's page reads depend
			// on which Voronoi cells its engine already holds, and every DB
			// here runs at most one STPS NN query.
			single := buildDB(t, cfg, objs, food, cafes)
			tc := startCluster(t, cfg, replicas, CoordinatorConfig{HealthInterval: -1})
			rng := rand.New(rand.NewSource(int64(replicas)))
			for _, variant := range []stpq.Variant{stpq.Range, stpq.Influence, stpq.NearestNeighbor} {
				for _, alg := range []stpq.Algorithm{stpq.STPS, stpq.STDS} {
					label := fmt.Sprintf("kind %v replicas %d %v %v", kind, replicas, variant, alg)
					q := randomQuery(rng, words, variant, alg)
					want, st, err := single.TopK(q)
					if err != nil {
						t.Fatal(err)
					}
					resp := tc.query(t, q)
					requireSameResults(t, label, resp.Results, want)
					if resp.Stats.LogicalReads != st.LogicalReads {
						t.Fatalf("%s: %d logical reads, single DB %d", label, resp.Stats.LogicalReads, st.LogicalReads)
					}
				}
			}
		}
	}
}

func requireSameResults(t *testing.T, label string, got []serve.ResultJSON, want []stpq.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if stpq.Result(got[i]) != want[i] {
			t.Fatalf("%s rank %d: got %+v want %+v", label, i, got[i], want[i])
		}
	}
}

// TestClusterSpreadsQueries: 40 queries over 4 replicas reach every
// replica, and every answer is byte-identical to the single DB's.
func TestClusterSpreadsQueries(t *testing.T) {
	objs, food, cafes, words := testData(7)
	cfg := stpq.Config{PageSize: 1024}
	single := buildDB(t, cfg, objs, food, cafes)
	tc := startCluster(t, cfg, 4, CoordinatorConfig{HealthInterval: -1})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		q := randomQuery(rng, words, stpq.Variant(i%3), stpq.STPS)
		want, _, err := single.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResults(t, fmt.Sprintf("query %d", i), tc.query(t, q).Results, want)
	}
	for i, r := range tc.replicas {
		if r.served() == 0 {
			t.Errorf("replica %d served none of 40 queries", i)
		}
	}
}

// TestReplicaOrder: healthy replicas first, then the highest applied
// watermark, then a rotation that moves on by one replica per call.
func TestReplicaOrder(t *testing.T) {
	c, err := NewCoordinator(CoordinatorConfig{
		Replicas:       []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"},
		HealthInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	firsts := map[*endpoint]bool{}
	for i := 0; i < len(c.eps); i++ {
		firsts[c.ordered()[0]] = true
	}
	if len(firsts) != len(c.eps) {
		t.Fatalf("equal replicas: %d of %d lead a call in %d calls", len(firsts), len(c.eps), len(c.eps))
	}
	c.eps[0].healthy.Store(false)
	c.eps[2].appliedSeq.Store(5)
	for i := 0; i < len(c.eps); i++ {
		got := c.ordered()
		if got[0] != c.eps[2] || got[1] != c.eps[1] || got[2] != c.eps[0] {
			t.Fatalf("call %d: order %v, want freshest, then healthy, then unhealthy", i,
				[]string{got[0].base, got[1].base, got[2].base})
		}
	}
}

// TestHealthProbeReadsInfo: the probe is GET /info — a replica that
// answers 200 is healthy at its ingest.walSeq, one that does not answer is
// unhealthy.
func TestHealthProbeReadsInfo(t *testing.T) {
	objs, food, cafes, _ := testData(9)
	leader := buildDB(t, stpq.Config{PageSize: 1024, WALDir: t.TempDir()}, objs, food, cafes)
	o := stpq.Object{ID: 5000, X: 0.5, Y: 0.5}
	if err := leader.Apply([]stpq.Mutation{{Op: stpq.OpUpsertObject, Object: &o}}); err != nil {
		t.Fatal(err)
	}
	live := startReplica(t, leader, nil)
	dead := startReplica(t, buildDB(t, stpq.Config{PageSize: 1024}, objs, food, cafes), nil)
	dead.srv.Close()
	c, err := NewCoordinator(CoordinatorConfig{Replicas: []string{live.addr(), dead.addr()}, HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.probeHealth()
	if !c.eps[0].healthy.Load() || c.eps[0].appliedSeq.Load() != leader.WALSeq() || leader.WALSeq() == 0 {
		t.Fatalf("live replica: healthy %v at seq %d, want healthy at %d",
			c.eps[0].healthy.Load(), c.eps[0].appliedSeq.Load(), leader.WALSeq())
	}
	if c.eps[1].healthy.Load() {
		t.Fatal("a replica that does not answer passed the probe")
	}
}

// TestClusterFailover kills one of two replicas; the coordinator must
// answer every following query through the other with zero wrong answers.
func TestClusterFailover(t *testing.T) {
	objs, food, cafes, words := testData(7)
	cfg := stpq.Config{PageSize: 1024}
	single := buildDB(t, cfg, objs, food, cafes)
	tc := startCluster(t, cfg, 2, CoordinatorConfig{
		HealthInterval: -1,
		RetryMax:       3,
		RetryBackoff:   time.Millisecond,
	})
	q := stpq.Query{
		K: 8, Radius: 0.06, Lambda: 0.5,
		Keywords: map[string][]string{"food": {words[0], words[1]}, "cafes": {words[2]}},
	}
	want, _, err := single.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "pre-failover", tc.query(t, q).Results, want)
	tc.replicas[0].srv.Close()
	// Round-robin starts one of two consecutive calls at the dead replica.
	for i := 0; i < 2; i++ {
		requireSameResults(t, "post-failover", tc.query(t, q).Results, want)
	}
	if tc.coord.retries.Value() == 0 {
		t.Fatal("replica kill produced no retries")
	}
}

// TestOverloadedReplicaRetried: a replica answering 429 is retried on the
// next one, and the client sees the answer, not the overload.
func TestOverloadedReplicaRetried(t *testing.T) {
	objs, food, cafes, words := testData(7)
	cfg := stpq.Config{PageSize: 1024}
	single := buildDB(t, cfg, objs, food, cafes)
	overloaded := func(http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			serve.HTTPError(w, http.StatusTooManyRequests, "queue full")
		})
	}
	tc := startCluster(t, cfg, 2, CoordinatorConfig{HealthInterval: -1, RetryBackoff: time.Millisecond}, overloaded)
	q := stpq.Query{K: 8, Radius: 0.06, Lambda: 0.5, Keywords: map[string][]string{"food": {words[0]}}}
	want, _, err := single.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		requireSameResults(t, "overloaded replica", tc.query(t, q).Results, want)
	}
	if tc.coord.retries.Value() == 0 {
		t.Fatal("the overloaded replica produced no retries")
	}
}

// TestClusterHedging slows one of two replicas far past the hedge
// threshold; a call that starts there must be answered by the hedged
// attempt on the fast replica, correctly.
func TestClusterHedging(t *testing.T) {
	objs, food, cafes, words := testData(7)
	cfg := stpq.Config{PageSize: 1024}
	single := buildDB(t, cfg, objs, food, cafes)
	const delay = 400 * time.Millisecond
	tc := startCluster(t, cfg, 2, CoordinatorConfig{
		HealthInterval: -1,
		HedgeAfter:     20 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	}, delayed(delay))
	q := stpq.Query{
		K: 8, Radius: 0.06, Lambda: 0.5,
		Keywords: map[string][]string{"food": {words[0], words[1]}, "cafes": {words[2]}},
	}
	want, _, err := single.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin starts one of two consecutive calls at the slow replica.
	for i := 0; i < 2; i++ {
		start := time.Now()
		requireSameResults(t, "hedged", tc.query(t, q).Results, want)
		if elapsed := time.Since(start); elapsed >= delay {
			t.Fatalf("query %d took %v (slow replica delayed %v)", i, elapsed, delay)
		}
	}
	if tc.coord.hedges.Value() == 0 {
		t.Fatal("the slow replica produced no hedges")
	}
}

// TestClusterTracePropagation runs a traced query and expects the
// answering replica's span tree back in stats.trace, stamped with the
// request ID, which the coordinator's event log also carries.
func TestClusterTracePropagation(t *testing.T) {
	_, _, _, words := testData(7)
	tc := startCluster(t, stpq.Config{PageSize: 1024}, 2, CoordinatorConfig{HealthInterval: -1})
	const id = "req-cluster-trace-test"
	resp := tc.query(t, stpq.Query{
		K: 8, Radius: 0.06, Lambda: 0.5,
		Keywords:  map[string][]string{"food": {words[0], words[1]}},
		Trace:     true,
		RequestID: id,
	})
	if resp.RequestID != id {
		t.Fatalf("request id %q not preserved", resp.RequestID)
	}
	if resp.Stats.Trace == nil || resp.Stats.Trace.RequestID != id {
		t.Fatalf("span tree %+v: want the replica's, stamped %q", resp.Stats.Trace, id)
	}
	if resp.Stats.Trace.LogicalReads != resp.Stats.LogicalReads {
		t.Fatalf("span tree reads %d, stats %d", resp.Stats.Trace.LogicalReads, resp.Stats.LogicalReads)
	}
	evs := tc.coord.RecentQueries(1)
	if len(evs) != 1 || evs[0].RequestID != id {
		t.Fatalf("coordinator event log: %+v", evs)
	}
}

// TestOversizedBodyRefused: a /query body past serve.MaxQueryBytes is
// refused with 413, by a replica and by the coordinator alike, and the
// coordinator never forwards it.
func TestOversizedBodyRefused(t *testing.T) {
	tc := startCluster(t, stpq.Config{PageSize: 1024}, 1, CoordinatorConfig{HealthInterval: -1})
	body := []byte(`{"k":5,"radius":0.1,"lambda":0.5,"keywords":{"food":["` + strings.Repeat("a", 2<<20) + `"]}}`)
	resp, err := http.Post(tc.replicas[0].srv.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("replica: status %d, want 413", resp.StatusCode)
	}
	if rec := tc.coord.post(body, ""); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("coordinator: status %d, want 413: %s", rec.Code, rec.Body)
	}
	if n := tc.replicas[0].served(); n != 0 {
		t.Fatalf("the replica ran %d queries", n)
	}
}

// TestReplicaFollowsLeader ships WAL segments from a live leader to a
// follower over GET /wal/segments and expects the follower to converge to
// the leader's state.
func TestReplicaFollowsLeader(t *testing.T) {
	objs, food, cafes, words := testData(9)
	dir := t.TempDir()
	leader := buildDB(t, stpq.Config{PageSize: 1024, WALDir: dir}, objs, food, cafes)
	follower := buildDB(t, stpq.Config{PageSize: 1024}, objs, food, cafes)
	cl := NewLeader(startReplica(t, leader, nil).addr(), time.Second)
	defer cl.Close()

	// Mutate the leader: move objects, add features.
	for batch := 0; batch < 3; batch++ {
		var muts []stpq.Mutation
		for i := 0; i < 5; i++ {
			o := stpq.Object{ID: int64(1000 + batch*10 + i), X: 0.1 * float64(i+1), Y: 0.2}
			muts = append(muts, stpq.Mutation{Op: stpq.OpUpsertObject, Object: &o})
		}
		f := stpq.Feature{ID: int64(2000 + batch), X: 0.15, Y: 0.2, Score: 0.9,
			Keywords: []string{words[0]}}
		muts = append(muts, stpq.Mutation{Op: stpq.OpUpsertFeature, Set: "food", Feature: &f})
		if err := leader.Apply(muts); err != nil {
			t.Fatal(err)
		}
	}
	// Seal the active segment so the follower can fetch it.
	if err := leader.WALRotate(); err != nil {
		t.Fatal(err)
	}

	rep, err := StartReplica(ReplicaConfig{DB: follower, Source: cl, Interval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rep.AppliedSeq() < leader.WALSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at seq %d, leader at %d (err: %v)",
				rep.AppliedSeq(), leader.WALSeq(), rep.Err())
		}
		time.Sleep(5 * time.Millisecond)
	}

	q := stpq.Query{K: 10, Radius: 0.1, Lambda: 0.5,
		Keywords: map[string][]string{"food": {words[0]}}}
	want, _, err := leader.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := follower.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("follower: %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("follower diverged at rank %d: got %+v want %+v", i, got[i], want[i])
		}
	}

	// A second round: replication keeps flowing after the first catch-up.
	o := stpq.Object{ID: 5000, X: 0.5, Y: 0.5}
	if err := leader.Apply([]stpq.Mutation{{Op: stpq.OpUpsertObject, Object: &o}}); err != nil {
		t.Fatal(err)
	}
	if err := leader.WALRotate(); err != nil {
		t.Fatal(err)
	}
	for rep.AppliedSeq() < leader.WALSeq() {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck after second round at %d, leader %d", rep.AppliedSeq(), leader.WALSeq())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tornSource truncates every fetched segment, simulating a partial read.
type tornSource struct{ inner SegmentSource }

func (s tornSource) Segment(from uint64) (SegmentReply, error) {
	reply, err := s.inner.Segment(from)
	if err != nil || reply.FirstSeq == 0 {
		return reply, err
	}
	if len(reply.Data) > 3 {
		reply.Data = reply.Data[:len(reply.Data)-3]
	}
	return reply, nil
}

// TestReplicaTornSegment feeds the follower torn segments: it must refuse
// to apply a single record and surface the corruption error.
func TestReplicaTornSegment(t *testing.T) {
	objs, food, cafes, words := testData(9)
	dir := t.TempDir()
	leader := buildDB(t, stpq.Config{PageSize: 1024, WALDir: dir}, objs, food, cafes)
	follower := buildDB(t, stpq.Config{PageSize: 1024}, objs, food, cafes)
	cl := NewLeader(startReplica(t, leader, nil).addr(), time.Second)
	defer cl.Close()
	f := stpq.Feature{ID: 2000, X: 0.15, Y: 0.2, Score: 0.9, Keywords: []string{words[0]}}
	if err := leader.Apply([]stpq.Mutation{{Op: stpq.OpUpsertFeature, Set: "food", Feature: &f}}); err != nil {
		t.Fatal(err)
	}
	if err := leader.WALRotate(); err != nil {
		t.Fatal(err)
	}
	rep, err := StartReplica(ReplicaConfig{
		DB: follower, Source: tornSource{cl}, Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Close()
	deadline := time.Now().Add(5 * time.Second)
	for rep.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("torn segment never surfaced an error")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if rep.AppliedSeq() != 0 {
		t.Fatalf("replica applied %d records from a torn segment", rep.AppliedSeq())
	}
}
