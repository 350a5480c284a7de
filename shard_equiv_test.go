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

// TestShardedDBMatchesSingle drives the sharded engine through the public
// DB API: for both index kinds, all three variants, both algorithms and
// several shard counts, results must be byte-identical (scores and order)
// to the unsharded build of the same data.
func TestShardedDBMatchesSingle(t *testing.T) {
	objs, food, cafes, words := shardTestData(7)
	for _, kind := range []IndexKind{SRT, IR2} {
		single := buildShardTestDB(t, Config{IndexKind: kind, PageSize: 1024}, objs, food, cafes)
		for _, shards := range []int{2, 4, 8} {
			strategy := ShardHilbert
			if shards == 4 {
				strategy = ShardGrid
			}
			sharded := buildShardTestDB(t, Config{
				IndexKind: kind, PageSize: 1024,
				ShardCount: shards, ShardStrategy: strategy,
			}, objs, food, cafes)
			rng := rand.New(rand.NewSource(int64(shards)))
			for _, variant := range []Variant{Range, Influence, NearestNeighbor} {
				for _, alg := range []Algorithm{STPS, STDS} {
					q := Query{
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
					got, _, err := sharded.TopK(q)
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
				}
			}
		}
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
