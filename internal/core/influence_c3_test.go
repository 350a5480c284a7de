package core

import (
	"math/rand"
	"testing"

	"stpq/internal/index"
)

// Three feature sets under the influence variant: the floor rule prunes
// partial combinations too, so the stream emits 86, 1,046 and 159
// combinations here where the unbounded lattice emitted 1,119, 6,840 and
// 8,210. The ceiling is 1.5× the largest.
func TestInfluenceC3Quick(t *testing.T) {
	w := buildWorld(t, 900, 200, 150, 3, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(901))
	for trial := 0; trial < 3; trial++ {
		q := w.randQuery(rng, 3, InfluenceScore)
		got, st, err := w.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("combos=%d pulled=%d", st.Combinations, st.FeaturesPulled)
		if st.Combinations > 1600 {
			t.Errorf("trial %d: %d combinations emitted, ceiling 1600", trial, st.Combinations)
		}
		assertMatchesBruteForce(t, w, q, got, "STPS/influence/c3")
	}
}
