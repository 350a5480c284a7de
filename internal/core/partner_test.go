package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"stpq/internal/index"
	"stpq/internal/kwset"
)

// partnerWorld builds 200 objects and c feature sets of 150 features at
// 1 KiB pages over a vocabulary of 8 words, each set in one part or dealt by
// quadrant into four, as the Hilbert shards of a sharded build split it.
func partnerWorld(t *testing.T, seed int64, kind index.Kind, c, parts int) *testWorld {
	t.Helper()
	const vocabW = 8
	rng := rand.New(rand.NewSource(seed))
	objs := make([]index.Object, 200)
	for i := range objs {
		objs[i] = index.Object{ID: int64(i), Location: randPoint(rng)}
	}
	oidx, err := index.BuildObjectIndex(objs, index.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	opts := index.Options{Kind: kind, VocabWidth: vocabW, PageSize: 1024}
	groups := make([]*index.FeatureGroup, c)
	for s := range groups {
		cells := make([][]index.Feature, parts)
		for i := 0; i < 150; i++ {
			kw := kwset.NewSet(vocabW)
			for j := 0; j < 1+rng.Intn(3); j++ {
				kw.Add(rng.Intn(vocabW))
			}
			f := index.Feature{ID: int64(i), Location: randPoint(rng), Score: rng.Float64(), Keywords: kw}
			cell := 0
			if parts == 4 {
				cell = int(2*f.Location.X)%2 + 2*(int(2*f.Location.Y)%2)
			}
			cells[cell] = append(cells[cell], f)
		}
		idxs := make([]*index.FeatureIndex, 0, parts)
		for _, fs := range cells {
			idx, err := index.BuildFeatureIndex(fs, opts)
			if err != nil {
				t.Fatal(err)
			}
			idxs = append(idxs, idx)
		}
		if groups[s], err = index.NewFeatureGroup(idxs...); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngineOverParts([]*index.ObjectIndex{oidx}, 0, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{engine: eng, vocabW: vocabW}
}

// comboOracle knows every relevant feature of every set, best score first,
// and finds the best valid range combination through any member not yet
// pulled, by search over all of them.
type comboOracle struct {
	rel [][]featureRef
	r2  float64 // 2r
}

func newComboOracle(t *testing.T, e *Engine, q *Query) *comboOracle {
	t.Helper()
	o := &comboOracle{rel: make([][]featureRef, len(e.features)), r2: 2 * q.Radius}
	for i, g := range e.features {
		all, err := g.All()
		if err != nil {
			t.Fatal(err)
		}
		qk := q.keywordsFor(i)
		for _, en := range all {
			if en.Keywords.Intersects(qk.Set) {
				o.rel[i] = append(o.rel[i], featureRef{id: en.ItemID, loc: en.Point(), score: index.Score(en, qk)})
			}
		}
		slices.SortFunc(o.rel[i], func(a, b featureRef) int {
			switch {
			case a.score > b.score:
				return -1
			case a.score < b.score:
				return 1
			}
			return 0
		})
	}
	return o
}

// bestUnseen returns the best score of a valid combination with at least
// one member the stream has not pulled: a relevant feature missing from
// cs.d, or the ∅ of a set whose ∅ is still pending. −∞ when there is none.
func (o *comboOracle) bestUnseen(cs *combinationStream) float64 {
	c := len(o.rel)
	pulled := make([]map[int64]bool, c)
	for i := range pulled {
		pulled[i] = map[int64]bool{}
		for _, ref := range cs.d[i] {
			if !ref.virtual {
				pulled[i][ref.id] = true
			}
		}
	}
	best := negInf
	chosen := make([]featureRef, c)
	for j := range o.rel {
		if cs.voidAt[j] < 0 && !cs.exhausted[j] {
			chosen[j] = featureRef{virtual: true}
			best = max(best, o.complete(chosen, j, 0, 0, best))
		}
		for _, f := range o.rel[j] {
			if !pulled[j][f.id] {
				chosen[j] = f
				best = max(best, o.complete(chosen, j, 0, f.score, best))
			}
		}
	}
	return best
}

// complete extends chosen — fixed at set fixed — over sets dim… with any
// relevant feature pairwise within 2r of the concrete members chosen, or
// ∅, and returns the best total above floor, or floor.
func (o *comboOracle) complete(chosen []featureRef, fixed, dim int, score, floor float64) float64 {
	if dim == fixed {
		dim++
	}
	if dim >= len(o.rel) {
		return max(score, floor)
	}
	rest := 0.0
	for j := dim + 1; j < len(o.rel); j++ {
		if j != fixed && len(o.rel[j]) > 0 {
			rest += o.rel[j][0].score
		}
	}
	chosen[dim] = featureRef{virtual: true}
	floor = max(floor, o.complete(chosen, fixed, dim+1, score, floor))
	for _, f := range o.rel[dim] {
		if score+f.score+rest <= floor {
			break // best first: nothing further in the set does better
		}
		if o.fits(chosen, fixed, dim, f) {
			chosen[dim] = f
			floor = max(floor, o.complete(chosen, fixed, dim+1, score+f.score, floor))
		}
	}
	chosen[dim] = featureRef{}
	return floor
}

// fits reports whether f lies within 2r of every concrete member chosen so
// far: those of the sets before dim, and of set fixed.
func (o *comboOracle) fits(chosen []featureRef, fixed, dim int, f featureRef) bool {
	for k := range chosen {
		if (k < dim || k == fixed) && !chosen[k].virtual && chosen[k].loc.Dist(f.loc) > o.r2 {
			return false
		}
	}
	return true
}

// Partner order is sound: over random SRT and IR² worlds at 1 KiB pages, at
// c = 2, 3 and 4, with each set in one part and dealt into four, after
// every combination the range stream emits, brute force finds no valid
// combination still unemitted — queued, or through a member not yet pulled
// — that scores above it, and τ is at least the true bound of every queued
// entry: the best valid combination through any feature not yet pulled, or
// through a ∅ still pending.
func TestPartnerBoundDominatesProperty(t *testing.T) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		for _, c := range []int{2, 3, 4} {
			for _, parts := range []int{1, 4} {
				t.Run(fmt.Sprintf("%v/c=%d/parts=%d", kind, c, parts), func(t *testing.T) {
					w := partnerWorld(t, int64(100*c+parts), kind, c, parts)
					rng := rand.New(rand.NewSource(int64(7*c + parts)))
					for trial := 0; trial < 6; trial++ {
						q := w.randQuery(rng, c, RangeScore)
						checkPartnerBound(t, w.engine, q, 120)
					}
				})
			}
		}
	}
}

// checkPartnerBound drains up to limit combinations of q's range stream
// and checks each against the oracle.
func checkPartnerBound(t *testing.T, root *Engine, q Query, limit int) {
	t.Helper()
	e := root.session()
	defer root.releaseSession(e)
	o := newComboOracle(t, e, &q)
	cs := newCombinationStream(e, &q, new(Stats), nil)
	for n := 0; n < limit; n++ {
		comb, ok, err := cs.next(negInf)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return
		}
		unseen := o.bestUnseen(cs)
		if comb.score < unseen-1e-9 {
			t.Fatalf("%+v: combination %d scores %v while one through an unseen member scores %v", q, n, comb.score, unseen)
		}
		if cs.heap.Len() > 0 && comb.score < cs.heap[0].score-1e-9 {
			t.Fatalf("%+v: combination %d scores %v below a queued %v", q, n, comb.score, cs.heap[0].score)
		}
		if tau := cs.threshold(); tau < unseen-1e-9 {
			t.Fatalf("%+v: after combination %d τ = %v, but a combination through an unseen member scores %v", q, n, tau, unseen)
		}
	}
}
