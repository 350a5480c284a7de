package stpq

// planner_equiv_test.go pins the two facts the per-shape cost statistics
// rest on: both forced algorithms return byte-identical results (ids,
// scores, order) on every index kind, layout and variant, and each records
// its cost under its own shape, so a prediction is unknown until that
// algorithm's shape has MinPredictSamples executions. Run under -race in
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

// TestAutoPlannerPredictCost pins EXPLAIN's prediction gate, per forced
// algorithm: a shape predicts nothing below the sample floor but counts its
// samples, predicts a positive cost after it, and one algorithm's
// executions never warm the other's shape.
func TestAutoPlannerPredictCost(t *testing.T) {
	objs, food, cafes, words := shardTestData(13)
	db := buildShardTestDB(t, Config{PageSize: 1024}, objs, food, cafes)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	explain := func(q Query) *Explain {
		t.Helper()
		p, err := snap.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := p.Explain()
		if err != nil {
			t.Fatal(err)
		}
		return ex
	}
	for _, alg := range []Algorithm{STPS, STDS} {
		q := Query{
			K: 5, Radius: 0.05, Lambda: 0.5,
			Keywords:  map[string][]string{"food": {words[0]}, "cafes": {words[1]}},
			Algorithm: alg,
		}
		if ex := explain(q); ex.Predicted != nil || ex.Samples != 0 {
			t.Fatalf("%v cold predict: shape %q predicted %+v samples %d", alg, ex.Shape, ex.Predicted, ex.Samples)
		}
		for i := 0; i < MinPredictSamples; i++ {
			if i == MinPredictSamples-1 {
				if ex := explain(q); ex.Predicted != nil || ex.Samples != int64(i) {
					t.Fatalf("%v after %d of %d samples: predicted %+v samples %d", alg, i, MinPredictSamples, ex.Predicted, ex.Samples)
				}
			}
			if _, _, err := db.TopK(q); err != nil {
				t.Fatal(err)
			}
		}
		ex := explain(q)
		if ex.Predicted == nil || ex.Samples != MinPredictSamples || ex.Shape == "" ||
			ex.Predicted.MeanDuration+ex.Predicted.MeanIOTime <= 0 {
			t.Fatalf("%v warm predict: shape %q predicted %+v samples %d", alg, ex.Shape, ex.Predicted, ex.Samples)
		}
	}
}
