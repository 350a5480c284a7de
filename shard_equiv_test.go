package stpq

import (
	"math/rand"
	"reflect"
	"testing"
)

// shardTestData builds deterministic random objects and two feature sets
// for the sharded-vs-single comparisons.
func shardTestData(seed int64) ([]Object, []Feature, []Feature, []string) {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"pizza", "sushi", "tacos", "ramen", "bagels", "pho", "curry", "bbq",
		"espresso", "latte", "tea", "cocoa"}
	objs := make([]Object, 400)
	for i := range objs {
		objs[i] = Object{ID: int64(i), X: rng.Float64(), Y: rng.Float64()}
	}
	mk := func(n int) []Feature {
		feats := make([]Feature, n)
		for i := range feats {
			feats[i] = Feature{
				ID: int64(i), X: rng.Float64(), Y: rng.Float64(), Score: rng.Float64(),
				Keywords: []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
			}
		}
		return feats
	}
	return objs, mk(350), mk(300), words
}

func buildShardTestDB(t *testing.T, cfg Config, objs []Object, food, cafes []Feature) *DB {
	t.Helper()
	db := New(cfg)
	db.AddObjects(objs)
	db.AddFeatureSet("food", food)
	db.AddFeatureSet("cafes", cafes)
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestShardedDBMatchesSingle drives sharded layouts through the public DB
// API: for both index kinds, all three variants, both algorithms, several
// shard counts under both partitioners, a k that fits inside one shard and
// one larger than any shard, on the DB as built and as reopened from a
// Save, results must be byte-identical (scores and order) to the unsharded
// build of the same data — and the shard counters must account for every
// shard on the sharded side and stay zero on the unsharded one.
func TestShardedDBMatchesSingle(t *testing.T) {
	objs, food, cafes, words := shardTestData(7)
	for _, kind := range []IndexKind{SRT, IR2} {
		single := buildShardTestDB(t, Config{IndexKind: kind, PageSize: 1024}, objs, food, cafes)
		for _, shards := range []int{2, 4, 7} {
			for _, strategy := range []ShardStrategy{ShardHilbert, ShardGrid} {
				built := buildShardTestDB(t, Config{
					IndexKind: kind, PageSize: 1024,
					ShardCount: shards, ShardStrategy: strategy,
				}, objs, food, cafes)
				dir := t.TempDir()
				if err := built.Save(dir); err != nil {
					t.Fatal(err)
				}
				reopened, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, sharded := range []*DB{built, reopened} {
					compareShardedWithSingle(t, kind, shards, single, sharded, words)
				}
			}
		}
	}
}

// compareShardedWithSingle asks both DBs the same queries.
func compareShardedWithSingle(t *testing.T, kind IndexKind, shards int, single, sharded *DB, words []string) {
	t.Helper()
	snap, err := sharded.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(shards)))
	for _, variant := range []Variant{Range, Influence, NearestNeighbor} {
		for _, alg := range []Algorithm{STPS, STDS} {
			for _, k := range []int{8, 120} {
				q := Query{
					K: k, Radius: 0.06, Lambda: 0.5,
					Keywords: map[string][]string{
						"food":  {words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
						"cafes": {words[rng.Intn(len(words))]},
					},
					Variant: variant, Algorithm: alg,
				}
				want, wst, err := single.TopK(q)
				if err != nil {
					t.Fatal(err)
				}
				got, st, err := sharded.TopK(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("kind %v shards %d %v: %d results, want %d", kind, shards, variant, len(got), len(want))
				}
				for i := range want {
					if got[i].ID != want[i].ID || got[i].Score != want[i].Score {
						t.Fatalf("kind %v shards %d %v alg %v rank %d: got (%d, %v) want (%d, %v)",
							kind, shards, variant, alg, i, got[i].ID, got[i].Score, want[i].ID, want[i].Score)
					}
				}
				if st.ShardFanout < 1 || st.ShardFanout+st.ShardPruned != snap.NumShards() {
					t.Fatalf("kind %v shards %d %v alg %v: fanout %d + pruned %d over %d shards",
						kind, shards, variant, alg, st.ShardFanout, st.ShardPruned, snap.NumShards())
				}
				if wst.ShardFanout != 0 || wst.ShardPruned != 0 {
					t.Fatalf("unsharded DB reports fanout %d, pruned %d", wst.ShardFanout, wst.ShardPruned)
				}
			}
		}
	}
}

// TestMoreCellsThanObjects: a partition with more cells than data objects
// leaves cells empty; the empty ones become no part and answers do not
// move.
func TestMoreCellsThanObjects(t *testing.T) {
	objs, food, cafes, words := shardTestData(9)
	objs = objs[:5]
	single := buildShardTestDB(t, Config{PageSize: 1024}, objs, food, cafes)
	for _, strategy := range []ShardStrategy{ShardHilbert, ShardGrid} {
		sharded := buildShardTestDB(t, Config{PageSize: 1024, ShardCount: 7, ShardStrategy: strategy}, objs, food, cafes)
		snap, err := sharded.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if n := snap.NumShards(); n < 1 || n > len(objs) {
			t.Fatalf("strategy %v: %d shards for %d objects", strategy, n, len(objs))
		}
		compareShardedWithSingle(t, SRT, 7, single, sharded, words)
	}
}

// TestShardedReadsNearSingle: laying the objects out in four shards must
// not multiply the work. The feature streams and the combinations are
// produced once per query whatever the layout, so the page reads of a
// query set at S = 4 stay near those at S = 1 (they were 4.4 times as many
// when every shard ran its own STPS).
func TestShardedReadsNearSingle(t *testing.T) {
	objs, food, cafes, words := shardTestData(10)
	single := buildShardTestDB(t, Config{PageSize: 1024}, objs, food, cafes)
	sharded := buildShardTestDB(t, Config{PageSize: 1024, ShardCount: 4}, objs, food, cafes)
	rng := rand.New(rand.NewSource(11))
	var one, four int64
	for i := 0; i < 40; i++ {
		q := Query{
			K: 10, Radius: 0.05, Lambda: 0.5,
			Keywords: map[string][]string{
				"food":  {words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
				"cafes": {words[rng.Intn(len(words))]},
			},
		}
		_, st, err := single.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		one += st.LogicalReads
		if _, st, err = sharded.TopK(q); err != nil {
			t.Fatal(err)
		}
		four += st.LogicalReads
	}
	if float64(four) > 1.5*float64(one) {
		t.Fatalf("S = 4 read %d pages, S = 1 read %d: more than 1.5 times as many", four, one)
	}
}

// TestShardedDBSurface checks the non-query surface of a sharded DB:
// snapshots, rebuild, metrics, save/open round trip and score oracle.
func TestShardedDBSurface(t *testing.T) {
	objs, food, cafes, _ := shardTestData(8)
	db := buildShardTestDB(t, Config{ShardCount: 4, PageSize: 1024}, objs, food, cafes)

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumObjects() != len(objs) {
		t.Fatalf("NumObjects %d, want %d", snap.NumObjects(), len(objs))
	}
	nf := snap.NumFeatures()
	if nf["food"] != len(food) || nf["cafes"] != len(cafes) {
		t.Fatalf("NumFeatures %v", nf)
	}
	if _, err := db.KeywordStats("food"); err != nil {
		t.Fatal(err)
	}
	q := Query{K: 5, Radius: 0.05, Lambda: 0.5,
		Keywords: map[string][]string{"food": {"pizza"}}}
	if _, err := db.Score(q, 0.5, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TopK(q); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Counters["stpq_shard_fanout_total"]+m.Counters["stpq_shard_pruned_total"] == 0 {
		t.Fatal("shard scatter counters missing from DB metrics")
	}
	// Save/open round trip: the reopened sharded DB must answer every
	// query identically to the engine that saved it.
	dir := t.TempDir()
	if err := db.Save(dir); err != nil {
		t.Fatalf("Save on sharded DB: %v", err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open on sharded save: %v", err)
	}
	for _, alg := range []Algorithm{STPS, STDS} {
		for _, v := range []Variant{Range, Influence, NearestNeighbor} {
			rq := q
			rq.Algorithm = alg
			rq.Variant = v
			want, _, err := db.TopK(rq)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := db2.TopK(rq)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("alg %v variant %v: reopened sharded DB diverges:\n got %v\nwant %v", alg, v, got, want)
			}
		}
	}
	if err := db.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.TopK(q); err != nil {
		t.Fatal(err)
	}
}
