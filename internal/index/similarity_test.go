package index

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stpq/internal/geo"
	"stpq/internal/kwset"
	"stpq/internal/rtree"
	"stpq/internal/storage"
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

// The pair cap keeps the node bound sound: on random SRT and IR² trees,
// at every internal slot and under every measure, the slot priced with its
// query-keyword count capped by rtree.PageView.PairCap is at least the
// best score of any feature below it. Small vocabularies and features of
// up to five keywords make queries meet many pairs, and λ = 1 among the
// weights leaves the keyword term alone to carry the bound. The test fails
// if the cap tightened no slot, for then it would show nothing.
func TestPairCapBoundDominatesProperty(t *testing.T) {
	measures := []Similarity{Jaccard, Dice, Cosine, Overlap}
	slots, capped := 0, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 8 + rng.Intn(24)
		features := make([]Feature, 300+rng.Intn(300))
		for i := range features {
			kw := kwset.NewSet(w)
			for j := 0; j < 1+rng.Intn(5); j++ {
				kw.Add(rng.Intn(w))
			}
			features[i] = Feature{ID: int64(i), Location: geo.Point{X: rng.Float64(), Y: rng.Float64()}, Score: rng.Float64(), Keywords: kw}
		}
		kind := []Kind{SRT, IR2}[rng.Intn(2)]
		idx, err := BuildFeatureIndex(features, Options{Kind: kind, VocabWidth: w, PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			q := kwset.NewSet(w)
			for j := 0; j < 2+rng.Intn(4); j++ {
				q.Add(rng.Intn(w))
			}
			pairs := rtree.AppendPairs(nil, q.WordsBits())
			lambda := []float64{1, 0.5, rng.Float64()}[rng.Intn(3)]
			for _, sim := range measures {
				qk := QueryKeywords{Set: q, Lambda: lambda, Sim: sim}
				if _, err := capWalk(idx.Tree(), idx.Tree().Root(), &qk, pairs, &slots, &capped); err != nil {
					t.Logf("seed %d, %v, %v, λ = %v: %v", seed, kind, sim, lambda, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	t.Logf("the cap tightened %d of %d internal slots", capped, slots)
	if capped == 0 {
		t.Fatal("the cap tightened no slot: the test shows nothing")
	}
}

// capWalk returns the best score of any feature below page pid, or an
// error at the first internal slot whose capped price is below the best
// score below it. It counts the internal slots it prices and those the
// cap tightened.
func capWalk(tr *rtree.Tree, pid storage.PageID, q *QueryKeywords, pairs []rtree.Pair, slots, capped *int) (float64, error) {
	v, err := tr.View(pid)
	if err != nil {
		return 0, err
	}
	best := 0.0
	var arena []uint64
	for i := 0; i < v.Len(); i++ {
		var e rtree.Entry
		arena = arena[:0]
		v.Entry(i, &e, &arena)
		if e.Leaf {
			best = math.Max(best, q.Score(&e))
			continue
		}
		below, err := capWalk(tr, e.Child, q, pairs, slots, capped)
		if err != nil {
			return 0, err
		}
		inter := e.Keywords.IntersectCount(q.Set)
		c := v.PairCap(i, pairs, inter)
		if *slots++; c < inter {
			*capped++
		}
		if price := q.BoundCounts(e.Score, false, c, e.Keywords.Count(), q.Set.Count()); price < below-1e-12 {
			return 0, fmt.Errorf("page %d slot %d: priced %v at %d of %d query keywords, a feature below scores %v", pid, i, price, c, inter, below)
		}
		best = math.Max(best, below)
	}
	return best, nil
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
