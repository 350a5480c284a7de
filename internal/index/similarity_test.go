package index

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stpq/internal/kwset"
)

// simOf and nodeBoundOf price sets through the count functions, as an
// Entry is priced.
func simOf(s Similarity, t, w kwset.Set) float64 {
	return s.SimCounts(t.IntersectCount(w), t.Count(), w.Count())
}

func nodeBoundOf(s Similarity, eW, w kwset.Set) float64 {
	return s.NodeBoundCounts(eW.IntersectCount(w), w.Count())
}

func TestSimilarityValues(t *testing.T) {
	a := kwset.SetFromWords(16, 0, 1)    // {0,1}
	b := kwset.SetFromWords(16, 1, 2, 3) // {1,2,3}
	// |∩| = 1, |∪| = 4, |a| = 2, |b| = 3.
	tests := []struct {
		sim  Similarity
		want float64
	}{
		{Jaccard, 1.0 / 4.0},
		{Dice, 2.0 / 5.0},
		{Cosine, 1.0 / math.Sqrt(6)},
		{Overlap, 1.0 / 2.0},
	}
	for _, tc := range tests {
		if got := simOf(tc.sim, a, b); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%v = %v, want %v", tc.sim, got, tc.want)
		}
		// Symmetry.
		if got := simOf(tc.sim, b, a); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%v not symmetric", tc.sim)
		}
		// Identity: sim(x, x) = 1.
		if got := simOf(tc.sim, a, a); math.Abs(got-1) > 1e-12 {
			t.Errorf("%v self-similarity = %v", tc.sim, got)
		}
		// Disjoint sets score 0.
		if got := simOf(tc.sim, a, kwset.SetFromWords(16, 9)); got != 0 {
			t.Errorf("%v disjoint = %v", tc.sim, got)
		}
		// Empty sets score 0.
		if got := simOf(tc.sim, kwset.NewSet(16), kwset.NewSet(16)); got != 0 {
			t.Errorf("%v empty = %v", tc.sim, got)
		}
	}
}

func TestSimilarityStrings(t *testing.T) {
	if Jaccard.String() != "jaccard" || Dice.String() != "dice" ||
		Cosine.String() != "cosine" || Overlap.String() != "overlap" {
		t.Error("similarity strings")
	}
	if Similarity(9).String() != "Similarity(9)" {
		t.Error("unknown similarity string")
	}
}

// The node bound must dominate the similarity of every subset of the node
// summary — the contract that keeps ŝ(e) sound for all measures — and,
// but for Cosine's, be met to the bit by the feature whose keywords are
// the summary's share of the query, eW ∩ w: no bound is looser than it
// must be.
func TestNodeBoundDominatesProperty(t *testing.T) {
	measures := []Similarity{Jaccard, Dice, Cosine, Overlap}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const w = 24
		q := kwset.NewSet(w)
		for i := 0; i < 1+rng.Intn(4); i++ {
			q.Add(rng.Intn(w))
		}
		node := kwset.NewSet(w)
		members := make([]kwset.Set, 0, 5)
		for i := 0; i < 5; i++ {
			m := kwset.NewSet(w)
			for j := 0; j < 1+rng.Intn(4); j++ {
				m.Add(rng.Intn(w))
			}
			members = append(members, m)
			node.UnionInPlace(m)
		}
		for _, sim := range measures {
			bound := nodeBoundOf(sim, node, q)
			if bound < 0 || bound > 1+1e-12 {
				return false
			}
			for _, m := range members {
				if simOf(sim, m, q) > bound+1e-12 {
					return false
				}
			}
			if tight := node.Intersect(q); sim != Cosine && !tight.IsEmpty() && math.Float64bits(simOf(sim, tight, q)) != math.Float64bits(bound) {
				t.Logf("%v: eW ∩ w = %v scores %v, bound %v", sim, tight, simOf(sim, tight, q), bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// All measures are bounded in [0,1] and positive exactly when the sets
// intersect.
func TestSimilarityRangeProperty(t *testing.T) {
	measures := []Similarity{Jaccard, Dice, Cosine, Overlap}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const w = 32
		a, b := kwset.NewSet(w), kwset.NewSet(w)
		for i := 0; i < 1+rng.Intn(5); i++ {
			a.Add(rng.Intn(w))
		}
		for i := 0; i < 1+rng.Intn(5); i++ {
			b.Add(rng.Intn(w))
		}
		for _, sim := range measures {
			v := simOf(sim, a, b)
			if v < 0 || v > 1+1e-12 {
				return false
			}
			if (v > 0) != a.Intersects(b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}
