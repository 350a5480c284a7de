package stpq

// concurrency_test.go verifies the concurrent read path: parallel queries
// must return byte-identical results to sequential execution with the
// paper's per-query read attribution intact, and Rebuild must swap
// indexes without disturbing queries in flight.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// concDB builds a clustered random dataset through the public API.
func concDB(t testing.TB, cfg Config, objects, features int) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	db := New(cfg)
	objs := make([]Object, objects)
	for i := range objs {
		objs[i] = Object{ID: int64(i + 1), X: rng.Float64(), Y: rng.Float64()}
	}
	db.AddObjects(objs)
	for s, name := range []string{"restaurants", "cafes"} {
		feats := make([]Feature, features)
		for i := range feats {
			kws := make([]string, 1+rng.Intn(3))
			for j := range kws {
				kws[j] = fmt.Sprintf("kw%d", rng.Intn(32))
			}
			feats[i] = Feature{
				ID: int64(s*features + i + 1), X: rng.Float64(), Y: rng.Float64(),
				Score: rng.Float64(), Keywords: kws,
			}
		}
		db.AddFeatureSet(name, feats)
	}
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	return db
}

// concQueries is a mixed workload across variants and similarity measures.
func concQueries() []Query {
	var qs []Query
	for _, variant := range []Variant{Range, Influence, NearestNeighbor} {
		for k := 1; k <= 5; k += 2 {
			qs = append(qs, Query{
				K: k, Radius: 0.08, Lambda: 0.5, Variant: variant,
				Keywords: map[string][]string{
					"restaurants": {"kw1", "kw2", fmt.Sprintf("kw%d", 3+k)},
					"cafes":       {"kw4"},
				},
			})
		}
	}
	return qs
}

// TestConcurrentMatchesSequential runs N goroutines × M queries over both
// index kinds, all three variants and both algorithms, and requires every
// concurrent result to be byte-identical to its sequential counterpart,
// with per-query Stats still satisfying LogicalReads ≥ PhysicalReads > 0.
func TestConcurrentMatchesSequential(t *testing.T) {
	const goroutines = 8
	for _, kind := range []IndexKind{SRT, IR2} {
		for _, alg := range []Algorithm{STPS, STDS} {
			t.Run(fmt.Sprintf("kind=%d/alg=%d", kind, alg), func(t *testing.T) {
				db := concDB(t, Config{IndexKind: kind, BufferPages: 64}, 400, 400)
				qs := concQueries()
				for i := range qs {
					qs[i].Algorithm = alg
				}
				want := make([][]Result, len(qs))
				var err error
				for i, q := range qs {
					want[i], _, err = db.TopK(q)
					if err != nil {
						t.Fatal(err)
					}
				}
				var wg sync.WaitGroup
				for g := 0; g < goroutines; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for r := 0; r < 2*len(qs); r++ {
							i := (g + r) % len(qs)
							res, st, err := db.TopK(qs[i])
							if err != nil {
								t.Errorf("goroutine %d query %d: %v", g, i, err)
								return
							}
							if !reflect.DeepEqual(res, want[i]) {
								t.Errorf("goroutine %d query %d: concurrent results differ\n got %v\nwant %v",
									g, i, res, want[i])
								return
							}
							if st.LogicalReads <= 0 {
								t.Errorf("goroutine %d query %d: logical reads %d, want > 0", g, i, st.LogicalReads)
								return
							}
							if st.LogicalReads < st.PhysicalReads {
								t.Errorf("goroutine %d query %d: logical %d < physical %d — interleaved accounting",
									g, i, st.LogicalReads, st.PhysicalReads)
								return
							}
						}
					}(g)
				}
				wg.Wait()
			})
		}
	}
}

// TestConcurrentStatsAttribution pins down the satellite requirement
// directly: with a buffer pool far smaller than the working set, many
// concurrent queries each observe a self-consistent read count, identical
// to what they observe when run alone.
func TestConcurrentStatsAttribution(t *testing.T) {
	db := concDB(t, Config{BufferPages: 8}, 500, 500)
	q := Query{
		K: 5, Radius: 0.1, Lambda: 0.5,
		Keywords: map[string][]string{"restaurants": {"kw1", "kw2"}},
	}
	_, alone, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 12
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, st, err := db.TopK(q)
			if err != nil {
				t.Error(err)
				return
			}
			// Logical reads are deterministic per query; physical reads
			// depend on shared cache state but can never exceed them.
			if st.LogicalReads != alone.LogicalReads {
				t.Errorf("concurrent logical reads %d != sequential %d", st.LogicalReads, alone.LogicalReads)
			}
			if st.PhysicalReads > st.LogicalReads {
				t.Errorf("physical reads %d > logical reads %d", st.PhysicalReads, st.LogicalReads)
			}
		}()
	}
	wg.Wait()
}

// TestSetTraceSamplingWhileQuerying: the trace policy changes while
// queries run. Each query reads the policy once, so a tree it returns is
// whole — its root accounts for the query's reads — and answers and reads
// do not depend on whether it was traced.
func TestSetTraceSamplingWhileQuerying(t *testing.T) {
	db := concDB(t, Config{}, 300, 300)
	q := Query{
		K: 5, Radius: 0.1, Lambda: 0.5,
		Keywords: map[string][]string{"restaurants": {"kw1", "kw2"}},
	}
	want, alone, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, queries = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queries; i++ {
				res, st, err := db.TopK(q)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(res, want) || st.LogicalReads != alone.LogicalReads {
					t.Errorf("traced answer or reads moved: %d reads, want %d", st.LogicalReads, alone.LogicalReads)
					return
				}
				if st.Trace != nil && st.Trace.LogicalReads != st.LogicalReads {
					t.Errorf("trace root reads %d != query reads %d", st.Trace.LogicalReads, st.LogicalReads)
					return
				}
			}
		}()
	}
	stop, toggled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(toggled)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rate, slow := float64(i%2), time.Duration(i%3)*time.Nanosecond
			if err := db.SetTraceSampling(rate, slow); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-toggled
}

func TestValidateQuery(t *testing.T) {
	sets := []string{"restaurants", "cafes"}
	valid := Query{K: 3, Radius: 0.1, Lambda: 0.5,
		Keywords: map[string][]string{"restaurants": {"pizza"}}}
	if err := ValidateQuery(valid, sets); err != nil {
		t.Fatalf("valid query rejected: %v", err)
	}
	nn := Query{K: 3, Variant: NearestNeighbor} // radius 0 is fine for NN
	if err := ValidateQuery(nn, sets); err != nil {
		t.Fatalf("NN query with radius 0 rejected: %v", err)
	}
	bad := []Query{
		{K: 0, Radius: 0.1},
		{K: -2, Radius: 0.1},
		{K: 3, Radius: -0.1},
		{K: 3, Radius: 0}, // range variant divides by radius
		{K: 3, Radius: 0.1, Lambda: -0.5},
		{K: 3, Radius: 0.1, Lambda: 1.5},
		{K: 3, Radius: 0.1, Variant: Variant(9)},
		{K: 3, Radius: 0.1, Algorithm: Algorithm(9)},
		{K: 3, Radius: 0.1, Similarity: Similarity(9)},
		{K: 3, Radius: 0.1, Keywords: map[string][]string{"bars": {"beer"}}},
	}
	for i, q := range bad {
		err := ValidateQuery(q, sets)
		if !errors.Is(err, ErrInvalidQuery) {
			t.Errorf("case %d: err = %v, want ErrInvalidQuery", i, err)
		}
	}
	err := ValidateQuery(Query{K: 3, Radius: 0.1,
		Keywords: map[string][]string{"bars": {"beer"}}}, sets)
	if !errors.Is(err, ErrUnknownFeatureSet) {
		t.Errorf("unknown set: err = %v, want ErrUnknownFeatureSet", err)
	}
}

func TestSnapshotBeforeBuild(t *testing.T) {
	db := New(Config{})
	if _, err := db.Snapshot(); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("Snapshot err = %v, want ErrNotBuilt", err)
	}
	if err := db.Rebuild(); !errors.Is(err, ErrNotBuilt) {
		t.Errorf("Rebuild err = %v, want ErrNotBuilt", err)
	}
}

func TestRebuildGenerationAndSnapshotIsolation(t *testing.T) {
	db := concDB(t, Config{}, 200, 200)
	old, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if old.Generation() != 1 {
		t.Fatalf("initial generation = %d, want 1", old.Generation())
	}
	q := concQueries()[0]
	wantOld, _, err := old.TopK(q)
	if err != nil {
		t.Fatal(err)
	}

	// Grow the dataset and rebuild.
	db.AddObjects([]Object{{ID: 9001, X: 0.5, Y: 0.5}})
	db.AddFeatureSet("restaurants", []Feature{
		{ID: 9002, X: 0.5, Y: 0.5, Score: 1.0, Keywords: []string{"kw1", "brand-new-keyword"}},
	})
	if err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	fresh, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Generation() != 2 {
		t.Errorf("generation after Rebuild = %d, want 2", fresh.Generation())
	}
	if fresh.NumObjects() != 201 {
		t.Errorf("rebuilt objects = %d, want 201", fresh.NumObjects())
	}

	// The old snapshot still answers, identically to before the rebuild.
	gotOld, _, err := old.TopK(q)
	if err != nil {
		t.Fatalf("old snapshot after Rebuild: %v", err)
	}
	if !reflect.DeepEqual(gotOld, wantOld) {
		t.Error("old snapshot's results changed after Rebuild")
	}

	// The new keyword is only queryable at the new generation.
	nq := Query{K: 5, Radius: 0.2, Lambda: 1,
		Keywords: map[string][]string{"restaurants": {"brand-new-keyword"}}}
	res, _, err := fresh.TopK(nq)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range res {
		if r.Score > 0 {
			found = true
		}
	}
	if !found {
		t.Error("rebuilt index does not score the newly added feature")
	}
}

func TestRebuildDuringQueries(t *testing.T) {
	db := concDB(t, Config{}, 300, 300)
	qs := concQueries()
	var wg sync.WaitGroup
	stopped := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopped:
					return
				default:
				}
				q := qs[(g+i)%len(qs)]
				if res, _, err := db.TopK(q); err != nil {
					t.Errorf("query during rebuild: %v", err)
					return
				} else if len(res) == 0 {
					t.Error("query during rebuild returned no results")
					return
				}
			}
		}(g)
	}
	for i := 0; i < 3; i++ {
		if err := db.Rebuild(); err != nil {
			t.Errorf("rebuild %d: %v", i, err)
		}
	}
	close(stopped)
	wg.Wait()
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Generation() != 4 {
		t.Errorf("generation = %d, want 4 after 3 rebuilds", snap.Generation())
	}
}

// TestRebuildOpenedDB: the indexes are the data, so a DB loaded with Open —
// of either layout — rebuilds like one built in this process. Staged
// objects and a staged feature with a keyword the saved vocabulary lacks are
// folded in, and nothing of the loaded base is lost.
func TestRebuildOpenedDB(t *testing.T) {
	for _, shards := range []int{0, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(71))
			objs, sets := ingestSeedData(rng, 50, 50)
			cfg := Config{PageSize: 1024, ShardCount: shards}
			dir := t.TempDir()
			if err := buildIngestDB(t, cfg, objs, sets).Save(dir); err != nil {
				t.Fatal(err)
			}
			db, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			shadow := newIngestShadow(objs, sets)
			o := Object{ID: 900, X: 0.5, Y: 0.5}
			f := Feature{ID: 901, X: 0.51, Y: 0.5, Score: 0.9, Keywords: []string{"szechuan", "pizza"}}
			db.AddObjects([]Object{o}).AddFeatureSet("food", []Feature{f})
			shadow.apply(Mutation{Op: OpUpsertObject, Object: &o})
			shadow.apply(Mutation{Op: OpUpsertFeature, Set: "food", Feature: &f})
			if err := db.Rebuild(); err != nil {
				t.Fatalf("Rebuild on an opened DB: %v", err)
			}
			assertSameRanking(t, "rebuilt", db, shadow.oracle(t, cfg), rng, 1<<10)
			snap := mustSnapshot(t, db)
			if snap.NumObjects() != 51 || snap.NumFeatures()["food"] != 51 || snap.NumFeatures()["cafes"] != 50 {
				t.Fatalf("rebuilt DB holds %d objects, %v features; want 51, 51 food, 50 cafes",
					snap.NumObjects(), snap.NumFeatures())
			}
			if snap.Generation() != 2 {
				t.Errorf("generation = %d, want 2 after one rebuild", snap.Generation())
			}
			res, _, err := db.TopK(Query{K: 1, Radius: 0.05, Lambda: 0.5,
				Keywords: map[string][]string{"food": {"szechuan"}}})
			if err != nil || len(res) == 0 || res[0].Score == 0 {
				t.Fatalf("staged keyword not queryable after Rebuild: %v, %v", res, err)
			}
		})
	}
}

// bruteForce answers q on the snapshot's generation by scoring every object
// against every feature (core.Engine.BruteForce), in the public form.
func bruteForce(t testing.TB, snap *Snapshot, q Query) []Result {
	t.Helper()
	p, err := snap.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := snap.engine.BruteForce(p.cq)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{ID: r.ID, X: r.Location.X, Y: r.Location.Y, Score: r.Score}
	}
	return out
}

// sameScores reports whether two rankings have the same score at every
// rank. Objects tying to the last bits may be ranked either way, so ids are
// not compared.
func sameScores(got, want []Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			return false
		}
	}
	return true
}

// Six goroutines run NN STPS on one sharded DB whose engine has served no
// NN query yet, so they build, look up and race to store the same Voronoi
// cells in the engine's one store; every answer must match brute force.
// (The core package runs the same race on SRT and IR² engines.)
func TestConcurrentNNSharded(t *testing.T) {
	objs, food, cafes, words := shardTestData(11)
	db := buildShardTestDB(t, Config{PageSize: 1024, ShardCount: 4}, objs, food, cafes)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]Query, 8)
	want := make([][]Result, len(qs))
	for i := range qs {
		qs[i] = Query{K: 5 + 3*i, Lambda: 0.5, Variant: NearestNeighbor, Keywords: map[string][]string{
			"food": {words[i%len(words)], words[(i+5)%len(words)]}, "cafes": {words[(3*i+1)%len(words)]},
		}}
		want[i] = bruteForce(t, snap, qs[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := range qs {
				i := (g + r) % len(qs)
				got, _, err := db.TopK(qs[i])
				if err != nil {
					t.Errorf("goroutine %d query %d: %v", g, i, err)
					return
				}
				if !sameScores(got, want[i]) {
					t.Errorf("goroutine %d query %d:\n got %v\nwant %v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
