package cluster

// cluster_test.go drives the full distributed path over real TCP on
// 127.0.0.1: partition a dataset across in-process nodes, scatter-gather
// through a coordinator, and require byte-identical results versus the
// single-process engine; then break things — kill leaders, delay nodes
// past the hedge threshold, tear WAL segments — and require the
// coordinator and replicas to recover without a single wrong answer.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stpq"
	"stpq/internal/serve"
	"stpq/internal/shard"
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

// buildCell builds one node's DB: the cell's objects, every feature set.
func buildCell(t *testing.T, cfg stpq.Config, objs []stpq.Object, food, cafes []stpq.Feature) *stpq.DB {
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

// testCluster is a running local cluster: one node per cell, optionally a
// follower per cell serving the same data.
type testCluster struct {
	m     Map
	nodes []*Node // leaders, indexed by cell; followers appended after
	coord *Coordinator
}

// startNode builds a service around db and serves it on a loopback port.
func startNode(t *testing.T, id int, db *stpq.DB, delay time.Duration) (*Node, string) {
	t.Helper()
	svc, err := serve.New(db, serve.Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { svc.Close() })
	n := NewNode(NodeConfig{NodeID: id, Service: svc, DB: db, QueryDelay: delay})
	addr, err := n.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n, addr.String()
}

// startCluster partitions the dataset across cells nodes (with a follower
// per cell when withFollowers) and starts a coordinator over them.
func startCluster(t *testing.T, kind stpq.IndexKind, cells int, withFollowers bool,
	coordCfg CoordinatorConfig) *testCluster {
	t.Helper()
	objs, food, cafes, _ := testData(7)
	leaders := make([]string, cells)
	for i := range leaders {
		leaders[i] = "pending"
	}
	m, err := BuildMap(objs, leaders, shard.HilbertRuns)
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{m: m}
	cfg := stpq.Config{IndexKind: kind, PageSize: 1024}
	for i := 0; i < cells; i++ {
		cellObjs := m.PartitionObjects(objs, i)
		db := buildCell(t, cfg, cellObjs, food, cafes)
		n, addr := startNode(t, i, db, 0)
		tc.nodes = append(tc.nodes, n)
		tc.m.Nodes[i].Leader = addr
		if withFollowers {
			fdb := buildCell(t, cfg, cellObjs, food, cafes)
			fn, faddr := startNode(t, i, fdb, 0)
			tc.nodes = append(tc.nodes, fn)
			tc.m.Nodes[i].Followers = []string{faddr}
		}
	}
	coordCfg.Map = tc.m
	coord, err := NewCoordinator(coordCfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	tc.coord = coord
	return tc
}

// TestClusterMatchesSingle is the distributed equivalence matrix: both
// index kinds, all three variants, both algorithms, 2 and 4 nodes — the
// coordinator's merged top-k must be byte-identical (ids, scores, order)
// to the single-process engine over the whole dataset.
func TestClusterMatchesSingle(t *testing.T) {
	objs, food, cafes, words := testData(7)
	for _, kind := range []stpq.IndexKind{stpq.SRT, stpq.IR2} {
		single := buildCell(t, stpq.Config{IndexKind: kind, PageSize: 1024}, objs, food, cafes)
		for _, cells := range []int{2, 4} {
			tc := startCluster(t, kind, cells, false, CoordinatorConfig{HealthInterval: -1})
			rng := rand.New(rand.NewSource(int64(cells)))
			for _, variant := range []stpq.Variant{stpq.Range, stpq.Influence, stpq.NearestNeighbor} {
				for _, alg := range []stpq.Algorithm{stpq.STPS, stpq.STDS} {
					q := stpq.Query{
						K: 8, Radius: 0.06, Lambda: 0.5,
						Keywords: map[string][]string{
							"food":  {words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
							"cafes": {words[rng.Intn(len(words))]},
						},
						Variant: variant, Algorithm: alg,
					}
					want, _, err := single.TopK(q)
					if err != nil {
						t.Fatal(err)
					}
					resp, err := tc.coord.Do(q)
					if err != nil {
						t.Fatalf("kind %v cells %d %v %v: %v", kind, cells, variant, alg, err)
					}
					requireSameResults(t, fmt.Sprintf("kind %v cells %d %v %v", kind, cells, variant, alg),
						resp.Results, want)
					if resp.Stats.ShardFanout+resp.Stats.ShardPruned != cells {
						t.Fatalf("fanout %d + pruned %d != %d cells",
							resp.Stats.ShardFanout, resp.Stats.ShardPruned, cells)
					}
				}
			}
		}
	}
}

func requireSameResults(t *testing.T, label string, got []stpq.Result, want []stpq.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
			t.Fatalf("%s rank %d: got (%d, %v) want (%d, %v)",
				label, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
		}
	}
}

// TestClusterFailover kills every leader mid-run; the coordinator must
// finish every query through the followers with zero wrong answers.
func TestClusterFailover(t *testing.T) {
	objs, food, cafes, words := testData(7)
	single := buildCell(t, stpq.Config{PageSize: 1024}, objs, food, cafes)
	tc := startCluster(t, stpq.SRT, 2, true, CoordinatorConfig{
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
	// Warm run with all leaders alive.
	resp, err := tc.coord.Do(q)
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "pre-failover", resp.Results, want)
	// Kill both leaders (nodes[0], nodes[2] — follower interleaved after
	// each leader by startCluster).
	tc.nodes[0].Close()
	tc.nodes[2].Close()
	resp, err = tc.coord.Do(q)
	if err != nil {
		t.Fatalf("query after leader kill: %v", err)
	}
	requireSameResults(t, "post-failover", resp.Results, want)
	if tc.coord.retries.Value() == 0 {
		t.Fatal("leader kill produced no retries")
	}
}

// TestClusterHedging delays the leaders far past the hedge threshold; the
// hedged attempts on the followers must answer first, correctly.
func TestClusterHedging(t *testing.T) {
	objs, food, cafes, words := testData(7)
	single := buildCell(t, stpq.Config{PageSize: 1024}, objs, food, cafes)
	const delay = 400 * time.Millisecond
	// Hand-build the cluster so the leaders are slow and followers fast.
	leaders := make([]string, 2)
	for i := range leaders {
		leaders[i] = "pending"
	}
	m, err := BuildMap(objs, leaders, shard.HilbertRuns)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stpq.Config{PageSize: 1024}
	for i := 0; i < 2; i++ {
		cellObjs := m.PartitionObjects(objs, i)
		_, addr := startNode(t, i, buildCell(t, cfg, cellObjs, food, cafes), delay)
		m.Nodes[i].Leader = addr
		_, faddr := startNode(t, i, buildCell(t, cfg, cellObjs, food, cafes), 0)
		m.Nodes[i].Followers = []string{faddr}
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Map:            m,
		HealthInterval: -1,
		HedgeAfter:     20 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	q := stpq.Query{
		K: 8, Radius: 0.06, Lambda: 0.5,
		Keywords: map[string][]string{"food": {words[0], words[1]}, "cafes": {words[2]}},
	}
	want, _, err := single.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := coord.Do(q)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	requireSameResults(t, "hedged", resp.Results, want)
	if coord.hedges.Value() == 0 {
		t.Fatal("slow leaders produced no hedges")
	}
	// Bound probes also hedge, so the whole query should finish well under
	// the two sequential leader delays a hedge-less coordinator would eat.
	if elapsed >= 2*delay {
		t.Fatalf("hedged query took %v (leaders delayed %v each)", elapsed, delay)
	}
}

// TestClusterPlanAndTermination checks the scatter order (bound
// descending) and that Parallelism 1 actually prunes trailing nodes via
// the strict-inequality rule.
func TestClusterPlanAndTermination(t *testing.T) {
	_, _, _, words := testData(7)
	tc := startCluster(t, stpq.SRT, 4, false, CoordinatorConfig{
		HealthInterval: -1,
		Parallelism:    1,
	})
	q := stpq.Query{
		K: 3, Radius: 0.06, Lambda: 0.5,
		Keywords: map[string][]string{"food": {words[0], words[1]}},
	}
	plan, err := tc.coord.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 4 {
		t.Fatalf("plan has %d nodes, want 4", len(plan))
	}
	for i := 1; i < len(plan); i++ {
		if plan[i].Bound > plan[i-1].Bound {
			t.Fatalf("plan not sorted by bound: %v", plan)
		}
		if plan[i].Wave != i {
			t.Fatalf("parallelism 1: node %d in wave %d, want %d", i, plan[i].Wave, i)
		}
	}
	resp, err := tc.coord.Do(q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats.ShardFanout+resp.Stats.ShardPruned != 4 {
		t.Fatalf("fanout %d + pruned %d != 4", resp.Stats.ShardFanout, resp.Stats.ShardPruned)
	}
}

// TestClusterTracePropagation runs a traced query and expects every
// queried node's span tree back, keyed by node id, with the request ID
// visible in the nodes' event logs.
func TestClusterTracePropagation(t *testing.T) {
	_, _, _, words := testData(7)
	tc := startCluster(t, stpq.SRT, 2, false, CoordinatorConfig{HealthInterval: -1})
	q := stpq.Query{
		K: 8, Radius: 0.06, Lambda: 0.5,
		Keywords:  map[string][]string{"food": {words[0], words[1]}},
		Trace:     stpq.TraceOn,
		RequestID: "req-cluster-trace-test",
	}
	resp, err := tc.coord.Do(q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RequestID != "req-cluster-trace-test" {
		t.Fatalf("request id %q not preserved", resp.RequestID)
	}
	if len(resp.NodeTraces) != resp.Stats.ShardFanout {
		t.Fatalf("%d node traces for fanout %d", len(resp.NodeTraces), resp.Stats.ShardFanout)
	}
	// The request ID must appear in the coordinator's own event log.
	evs := tc.coord.RecentQueries(1)
	if len(evs) != 1 || evs[0].RequestID != "req-cluster-trace-test" {
		t.Fatalf("coordinator event log: %+v", evs)
	}
	if evs[0].ShardFanout != resp.Stats.ShardFanout {
		t.Fatalf("event fanout %d, want %d", evs[0].ShardFanout, resp.Stats.ShardFanout)
	}
}

// TestReplicaFollowsLeader ships WAL segments from a live leader to a
// follower over the real RPC path and expects the follower to converge to
// the leader's state.
func TestReplicaFollowsLeader(t *testing.T) {
	objs, food, cafes, words := testData(9)
	dir := t.TempDir()
	leader := buildCell(t, stpq.Config{PageSize: 1024, WALDir: dir}, objs, food, cafes)
	follower := buildCell(t, stpq.Config{PageSize: 1024}, objs, food, cafes)
	_, addr := startNode(t, 0, leader, 0)
	cl := NewClient(addr, time.Second)
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
	leader := buildCell(t, stpq.Config{PageSize: 1024, WALDir: dir}, objs, food, cafes)
	follower := buildCell(t, stpq.Config{PageSize: 1024}, objs, food, cafes)
	_, addr := startNode(t, 0, leader, 0)
	cl := NewClient(addr, time.Second)
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
