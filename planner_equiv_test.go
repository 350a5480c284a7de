package stpq

// planner_equiv_test.go pins the two facts that let a query name either
// algorithm: both forced algorithms return byte-identical results (ids,
// scores, order) on every index kind, layout and variant, and each counts
// its executions under its own shape in DB.QueryShapes. Run under -race in
// CI.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

func TestAutoPlannerMatchesForced(t *testing.T) {
	objs, food, cafes, words := shardTestData(11)
	for _, kind := range []IndexKind{SRT, IR2} {
		for _, shards := range []int{0, 3} {
			cfg := Config{IndexKind: kind, PageSize: 1024}
			if shards > 0 {
				cfg.ShardCount = shards
			}
			name := fmt.Sprintf("%v/shards=%d", kind, shards)
			t.Run(name, func(t *testing.T) {
				db := buildShardTestDB(t, cfg, objs, food, cafes)
				rng := rand.New(rand.NewSource(23))
				for _, variant := range []Variant{Range, Influence, NearestNeighbor} {
					q := Query{
						K: 8, Radius: 0.06, Lambda: 0.5,
						Keywords: map[string][]string{
							"food":  {words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
							"cafes": {words[rng.Intn(len(words))]},
						},
						Variant: variant,
					}
					want := make(map[Algorithm][]Result)
					for _, alg := range []Algorithm{STPS, STDS} {
						q.Algorithm = alg
						res, _, err := db.TopK(q)
						if err != nil {
							t.Fatal(err)
						}
						want[alg] = res
						ex, err := db.Explain(q)
						if err != nil {
							t.Fatal(err)
						}
						if ex.Algorithm != QueryShape(q).Alg {
							t.Fatalf("%v: explain says %q for %v", variant, ex.Algorithm, alg)
						}
					}
					if len(want[STPS]) == 0 {
						t.Fatalf("%v: empty answer — test data broken", variant)
					}
					if !reflect.DeepEqual(want[STPS], want[STDS]) {
						t.Fatalf("%v: stds != stps:\nstds %v\nstps %v", variant, want[STDS], want[STPS])
					}
				}
			})
		}
	}
}

// TestAutoPlannerPredictCost pins the per-algorithm shape: STPS runs three
// times and STDS once, and QueryShapes holds one row per algorithm, under
// the shape Explain names, with exactly that algorithm's executions — one
// algorithm's runs never count toward the other's row.
func TestAutoPlannerPredictCost(t *testing.T) {
	objs, food, cafes, words := shardTestData(13)
	db := buildShardTestDB(t, Config{PageSize: 1024}, objs, food, cafes)
	want := make(map[string]int64)
	for _, run := range []struct {
		alg  Algorithm
		runs int64
	}{{STPS, 3}, {STDS, 1}} {
		q := Query{
			K: 5, Radius: 0.05, Lambda: 0.5,
			Keywords:  map[string][]string{"food": {words[0]}, "cafes": {words[1]}},
			Algorithm: run.alg,
		}
		ex, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := want[ex.Shape]; ok || ex.Shape == "" {
			t.Fatalf("%v: shape %q is empty or another algorithm's", run.alg, ex.Shape)
		}
		for i := int64(0); i < run.runs; i++ {
			if _, _, err := db.TopK(q); err != nil {
				t.Fatal(err)
			}
		}
		want[ex.Shape] = run.runs
		got := make(map[string]int64)
		for _, row := range db.QueryShapes() {
			got[row.Shape] = row.Samples
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d %v runs: shape samples %v, want %v", run.runs, run.alg, got, want)
		}
	}
}
