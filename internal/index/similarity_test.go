package index

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// NodeBound is met to the bit, but for Cosine's node bound, by a feature
// that shares inter keywords with w and holds max(inter, least) keywords —
// no bound is looser than it must be, and none uses the least count where
// it needs the shared one — and dominates every feature sharing j ≤ inter
// keywords with w and holding n ≥ least.
func TestNodeBoundLeastIsMet(t *testing.T) {
	for _, sim := range []Similarity{Jaccard, Dice, Cosine, Overlap} {
		for wc := 1; wc <= 6; wc++ {
			for inter := 1; inter <= wc; inter++ {
				for least := 0; least <= inter+3; least++ {
					bound := sim.NodeBound(inter, least, wc)
					met := sim.SimCounts(inter, max(inter, least), wc)
					if (sim != Cosine || least > inter) && math.Float64bits(bound) != math.Float64bits(met) {
						t.Fatalf("%v: NodeBound(%d, %d, %d) = %v, a feature of %d keywords, %d shared, scores %v",
							sim, inter, least, wc, bound, max(inter, least), inter, met)
					}
					for j := 1; j <= inter; j++ {
						for n := max(j, least); n <= j+6; n++ {
							if got := sim.SimCounts(j, n, wc); got > bound+1e-15 {
								t.Fatalf("%v: a feature of %d keywords, %d shared, scores %v above NodeBound(%d, %d, %d) = %v",
									sim, n, j, got, inter, least, wc, bound)
							}
						}
					}
				}
			}
		}
	}
}

// tokenWorld returns n random features over w keywords, of one to five
// keywords each, in which the keywords below w/3 never stand alone: a
// feature drawn with one of them only gets a second keyword. Queries on
// those keywords meet inner slots whose features all hold another
// keyword, where the signature's tokens price the slot.
func tokenWorld(rng *rand.Rand, n, w int) []Feature {
	features := make([]Feature, n)
	for i := range features {
		kw := kwset.NewSet(w)
		for j := 0; j < 1+rng.Intn(5); j++ {
			kw.Add(rng.Intn(w))
		}
		if ids := kw.IDs(); len(ids) == 1 && ids[0] < w/3 {
			kw.Add(w/3 + rng.Intn(w-w/3))
		}
		features[i] = Feature{ID: int64(i), Location: geo.Point{X: rng.Float64(), Y: rng.Float64()}, Score: rng.Float64(), Keywords: kw}
	}
	return features
}

// The pair cap keeps the node bound sound: on random SRT and IR² trees of
// both inner layouts, at every internal slot and under every measure, the
// price of the slot's points (rtree.PageView.NextInner), whose
// query-keyword counts the pairs cap and whose least keyword counts the
// tokens raise, is at least the best score of a relevant feature below it
// (frontWalk). Over a vocabulary too wide for score tables, whose inner
// slots keep e.s and e.W and have one point at e.s, it is at least the
// best score of any feature below, relevant or not. Small vocabularies and features of up to
// five keywords make queries meet many pairs, keywords that never stand
// alone leave slots without their tokens (tokenWorld), and λ = 1 among the
// weights leaves the keyword term alone to carry the bound. The counts are
// kept per layout, and the test fails if on either the cap tightened no
// slot, or the tokens none, for then it would show nothing there.
func TestPairCapBoundDominatesProperty(t *testing.T) {
	measures := []Similarity{Jaccard, Dice, Cosine, Overlap}
	var st [2]frontStats // per layout, as idxs
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 8 + rng.Intn(24)
		features := tokenWorld(rng, 300+rng.Intn(300), w)
		kind := []Kind{SRT, IR2}[rng.Intn(2)]
		var idxs [2]*FeatureIndex // with score tables, and with e.s and e.W
		for i, vocab := range []int{w, rtree.MaxLevelWidth + 1} {
			var err error
			if idxs[i], err = BuildFeatureIndex(features, Options{Kind: kind, VocabWidth: vocab, PageSize: 1024}); err != nil {
				t.Fatal(err)
			}
		}
		for trial := 0; trial < 8; trial++ {
			q := kwset.NewSet(w)
			for j := 0; j < 1+rng.Intn(4); j++ {
				q.Add(rng.Intn(w))
			}
			var lq rtree.LevelQuery
			lq.Reset(q.WordsBits())
			lambda := []float64{1, 0.5, rng.Float64()}[rng.Intn(3)]
			for _, sim := range measures {
				qk := QueryKeywords{Set: q, Lambda: lambda, Sim: sim}
				for i, idx := range idxs {
					if _, _, err := frontWalk(idx.Tree(), idx.Tree().Root(), &qk, &lq, i == 1, &st[i]); err != nil {
						t.Logf("seed %d, %v over %d keywords, %v, λ = %v: %v", seed, kind, idx.Tree().Config().KeywordWidth, sim, lambda, err)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	for i, layout := range []string{"score tables", "e.s and e.W"} {
		t.Logf("%s: the cap tightened %d of %d internal slots, the tokens %d", layout, st[i].capped, st[i].slots, st[i].tokened)
		if st[i].capped == 0 || st[i].tokened == 0 {
			t.Fatalf("%s: the cap or the tokens tightened no slot: the test shows nothing", layout)
		}
	}
}

// The contract of Section 4.1 for the score tables: on random SRT and IR²
// trees, under all four measures and with λ = 1 among the weights, every
// internal slot the scan meets (rtree.PageView.NextInner) is priced
// (BoundLevels) at least at the best score of a relevant feature below it
// — one that holds a query keyword — and the scan meets every slot with
// one. Features of up to five keywords over small vocabularies make queries
// meet many pairs and levels, and keywords that never stand alone
// (tokenWorld) slots whose price points need a second keyword. The test
// fails if the table priced no slot below the bound of e.s, e.W and the
// pair cap, or no price point asked for a second keyword, for then it
// would show nothing.
func TestKeywordScoreBoundDominatesProperty(t *testing.T) {
	measures := []Similarity{Jaccard, Dice, Cosine, Overlap}
	var st frontStats
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := 8 + rng.Intn(24)
		features := tokenWorld(rng, 300+rng.Intn(300), w)
		kind := []Kind{SRT, IR2}[rng.Intn(2)]
		idx, err := BuildFeatureIndex(features, Options{Kind: kind, VocabWidth: w, PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 8; trial++ {
			q := kwset.NewSet(w)
			for j := 0; j < 1+rng.Intn(5); j++ {
				q.Add(rng.Intn(w))
			}
			lambda := []float64{1, 0.5, rng.Float64()}[rng.Intn(3)]
			for _, sim := range measures {
				qk := QueryKeywords{Set: q, Lambda: lambda, Sim: sim}
				var lq rtree.LevelQuery
				lq.Reset(q.WordsBits())
				if _, _, err := frontWalk(idx.Tree(), idx.Tree().Root(), &qk, &lq, false, &st); err != nil {
					t.Logf("seed %d, %v, %v, λ = %v, query %v: %v", seed, kind, sim, lambda, q, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
	t.Logf("the table priced %d of %d internal slots below e.s, e.W and the pair cap; %d with a point of two keywords", st.tabled, st.slots, st.tokened)
	if st.tabled == 0 || st.tokened == 0 {
		t.Fatal("the table tightened no slot, or no point needed a second keyword: the test shows nothing")
	}
}

// frontStats counts the internal slots frontWalk prices, those whose
// query-keyword count the pairs capped below |e.W ∩ W| (capped), those
// priced below the bound of the slot's e.s at the count and least of its
// last price point (tabled), and those with a price point of one query
// keyword and two keywords (tokened).
type frontStats struct{ slots, capped, tabled, tokened int }

// frontWalk returns the best score of a relevant feature below page pid,
// −1 when there is none, and the best score of any feature below it, or an
// error at the first internal slot the scan (rtree.PageView.NextInner)
// skips though a relevant feature lies below it, or whose price
// (BoundLevels) is below that feature's score — or, where all is set,
// below any feature's.
func frontWalk(tr *rtree.Tree, pid storage.PageID, q *QueryKeywords, lq *rtree.LevelQuery, all bool, st *frontStats) (relevant, best float64, err error) {
	v, err := tr.View(pid)
	if err != nil {
		return 0, 0, err
	}
	relevant, best = -1, 0
	var arena []uint64
	for i := 0; i < v.Len(); i++ {
		var e rtree.Entry
		arena = arena[:0]
		v.Entry(i, &e, &arena)
		if e.Leaf {
			if e.Keywords.Intersects(q.Set) {
				relevant = math.Max(relevant, q.Score(&e))
			}
			best = math.Max(best, q.Score(&e))
			continue
		}
		below, belowAny, err := frontWalk(tr, e.Child, q, lq, all, st)
		if err != nil {
			return 0, 0, err
		}
		relevant, best = math.Max(relevant, below), math.Max(best, belowAny)
		if v.NextInner(i, lq) != i {
			if below >= 0 {
				return 0, 0, fmt.Errorf("page %d slot %d: skipped, a relevant feature below scores %v", pid, i, below)
			}
			continue
		}
		front := slices.Clone(lq.Front())
		price := q.BoundLevels(front, q.Set.Count())
		if all {
			below = belowAny
		}
		if price < below-1e-12 {
			return 0, 0, fmt.Errorf("page %d slot %d: priced %v at %v, a feature below scores %v", pid, i, price, front, below)
		}
		for _, p := range front {
			if p.Least > p.Count {
				st.tokened++
				break
			}
		}
		// The front's last point, at the least level held, has the count
		// and the least keyword count the pair cap gives e.W.
		last := front[len(front)-1]
		st.slots++
		if last.Count < e.Keywords.IntersectCount(q.Set) {
			st.capped++
		}
		if price < (1-q.Lambda)*e.Score+q.Lambda*q.Sim.NodeBound(last.Count, last.Least, q.Set.Count()) {
			st.tabled++
		}
	}
	return relevant, best, nil
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
