package stpq

// planner_equiv_test.go is the planner's correctness contract: a query with
// Algorithm: Auto must return byte-identical results (ids, scores, order) to
// both forced algorithms — cold (the deterministic STPS fallback) and after
// the per-shape statistics have warmed enough for the planner to make a
// real cost-based choice. Run under -race in CI.

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

					// Cold: no statistics yet, Auto takes the deterministic
					// STPS fallback — and must still match both forced runs.
					q.Algorithm = Auto
					coldAuto, _, err := db.TopK(q)
					if err != nil {
						t.Fatal(err)
					}
					ex, err := db.Explain(q)
					if err != nil {
						t.Fatal(err)
					}
					if ex.Plan == nil || !ex.Plan.Fallback || ex.Plan.Algorithm != "stps" {
						t.Fatalf("%v cold plan: %+v, want stps fallback", variant, ex.Plan)
					}

					// Warm both candidate shapes past the prediction floor.
					// Forced runs record telemetry under their own algorithm
					// name, which is exactly what feeds the planner.
					var want map[Algorithm][]Result
					want = make(map[Algorithm][]Result)
					for _, alg := range []Algorithm{STPS, STDS} {
						q.Algorithm = alg
						for i := 0; i < MinPredictSamples; i++ {
							res, _, err := db.TopK(q)
							if err != nil {
								t.Fatal(err)
							}
							want[alg] = res
						}
					}
					if !reflect.DeepEqual(want[STPS], want[STDS]) {
						t.Fatalf("%v: forced algorithms disagree — test data broken", variant)
					}
					if !reflect.DeepEqual(coldAuto, want[STPS]) {
						t.Fatalf("%v cold auto != forced:\nauto   %v\nforced %v", variant, coldAuto, want[STPS])
					}

					// Warm: the planner now compares real means; whatever it
					// picks must be byte-identical to the forced baselines.
					q.Algorithm = Auto
					warmAuto, _, err := db.TopK(q)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(warmAuto, want[STPS]) {
						t.Fatalf("%v warm auto != forced:\nauto   %v\nforced %v", variant, warmAuto, want[STPS])
					}
					ex, err = db.Explain(q)
					if err != nil {
						t.Fatal(err)
					}
					if ex.Plan == nil || ex.Plan.Fallback || !ex.Plan.CostKnown {
						t.Fatalf("%v warm plan still cold: %+v", variant, ex.Plan)
					}
					if len(ex.Plan.Candidates) != 2 {
						t.Fatalf("%v warm plan candidates: %+v", variant, ex.Plan.Candidates)
					}
				}
			})
		}
	}
}

// TestAutoPlannerPredictCost pins the serve-admission input: cold shapes
// predict unknown, warmed shapes predict a positive cost for the shape the
// planner resolved.
func TestAutoPlannerPredictCost(t *testing.T) {
	objs, food, cafes, words := shardTestData(13)
	db := buildShardTestDB(t, Config{PageSize: 1024}, objs, food, cafes)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		K: 5, Radius: 0.05, Lambda: 0.5,
		Keywords:  map[string][]string{"food": {words[0]}, "cafes": {words[1]}},
		Algorithm: Auto,
	}
	p, err := snap.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if cost, known := p.Cost(); known || cost != 0 {
		t.Fatalf("cold predict: shape %q cost %v known %v", p.Shape(), cost, known)
	}
	for i := 0; i < MinPredictSamples; i++ {
		if _, _, err := db.TopK(q); err != nil {
			t.Fatal(err)
		}
	}
	if p, err = snap.Prepare(q); err != nil {
		t.Fatal(err)
	}
	if cost, known := p.Cost(); !known || cost <= 0 || p.Shape() == "" {
		t.Fatalf("warm predict: shape %q cost %v known %v", p.Shape(), cost, known)
	}
}
