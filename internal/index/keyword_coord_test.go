package index_test

import (
	"testing"

	"stpq/internal/datagen"
	"stpq/internal/hilbert"
)

// The SRT key's keyword coordinate spreads the benchmark's features: on 50 K
// synthetic features at 128 keywords no value holds more than 5 % of them
// (1.6 % measured: 128 values, one per least id). The top 16 bits of
// H(t.W) gave 77 % of them one value.
func TestKeywordCoordSpreadsFeatures(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		ds := datagen.Synthetic(datagen.SyntheticConfig{
			Objects: 50_000, FeaturesPerSet: 50_000, FeatureSets: 2, Vocab: 128, Seed: seed,
		})
		counts := make(map[uint32]int)
		top := 0
		for _, f := range ds.FeatureSets[0] {
			c := hilbert.KeywordMinHash(f.Keywords, 16)
			counts[c]++
			top = max(top, counts[c])
		}
		share := float64(top) / float64(len(ds.FeatureSets[0]))
		t.Logf("seed %d: %d values, the largest holds %.1f %% of the features", seed, len(counts), 100*share)
		if share > 0.05 {
			t.Errorf("seed %d: one coordinate value holds %.1f %% of the features", seed, 100*share)
		}
	}
}
