package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/index"
)

// influenceOf is the influence score location p collects from refs: the
// quantity influenceBound must dominate, summed the way topKInfluence sums it.
func influenceOf(refs []featureRef, r float64, p geo.Point) float64 {
	sum := 0.0
	for _, ref := range refs {
		if !ref.virtual {
			sum += ref.score * math.Exp2(-p.Dist(ref.loc)/r)
		}
	}
	return sum
}

// influenceBound dominates the influence score of every location, for
// combinations of two to four members with virtual ones among them: at
// random locations, on each feature and along each pair's segment (where
// the maximum lies). For two features the bound is the score at the better
// one, to the bit, and no location exceeds it even by rounding; from three
// on the sums are rounded in different orders, hence the 1e-12.
func TestInfluenceBoundDominatesEveryLocation(t *testing.T) {
	rng := rand.New(rand.NewSource(1901))
	for trial := 0; trial < 3000; trial++ {
		c := 2 + trial%3
		r := 0.01 + 0.3*rng.Float64()
		// Spread the members over a few r at most, where the bound is near
		// the scores it bounds; farther apart everything collapses to one.
		spread := r * math.Exp2(4*rng.Float64()-2)
		refs := make([]featureRef, c)
		concrete := 0
		for i := range refs {
			if rng.Intn(5) == 0 {
				refs[i] = featureRef{virtual: true, score: virtualScore}
				continue
			}
			concrete++
			refs[i] = featureRef{
				id:    int64(i),
				loc:   geo.Point{X: 0.5 + spread*(rng.Float64()-0.5), Y: 0.5 + spread*(rng.Float64()-0.5)},
				score: rng.Float64(),
			}
		}
		bound := influenceBound(refs, r)
		slack := 1e-12
		if concrete <= 2 {
			slack = 0
		}
		atFeature := negInf
		check := func(p geo.Point, where string) float64 {
			got := influenceOf(refs, r, p)
			if got > bound+slack {
				t.Fatalf("trial %d (c=%d, %d concrete, r=%v): influence %v %s exceeds bound %v\nrefs %+v",
					trial, c, concrete, r, got, where, bound, refs)
			}
			return got
		}
		for n := 0; n < 40; n++ {
			check(geo.Point{X: 0.5 + 2*spread*(rng.Float64()-0.5), Y: 0.5 + 2*spread*(rng.Float64()-0.5)}, "at a random location")
		}
		for i, ri := range refs {
			if ri.virtual {
				continue
			}
			atFeature = max(atFeature, check(ri.loc, fmt.Sprintf("on feature %d", i)))
			for j := i + 1; j < len(refs); j++ {
				if rj := refs[j]; !rj.virtual {
					for f := 0.05; f < 1; f += 0.05 {
						p := geo.Point{X: ri.loc.X + f*(rj.loc.X-ri.loc.X), Y: ri.loc.Y + f*(rj.loc.Y-ri.loc.Y)}
						check(p, fmt.Sprintf("on segment %d-%d", i, j))
					}
				}
			}
		}
		if concrete == 0 && bound != 0 {
			t.Fatalf("trial %d: all-virtual combination bounded by %v, want 0", trial, bound)
		}
		if concrete > 0 && concrete <= 2 && atFeature != bound {
			t.Fatalf("trial %d: bound %v of %d concrete members is not the score %v on the better one", trial, bound, concrete, atFeature)
		}
	}
}

// partsEngine rebuilds w's engine over its objects cut into vertical
// strips, one object part each, sharing w's feature indexes.
func partsEngine(t *testing.T, w *testWorld, strips int, opts Options) *Engine {
	t.Helper()
	all, err := w.engine.allObjects()
	if err != nil {
		t.Fatal(err)
	}
	byStrip := make([][]index.Object, strips)
	for _, en := range all {
		s := min(strips-1, int(en.Point().X*float64(strips)))
		byStrip[s] = append(byStrip[s], index.Object{ID: en.ItemID, Location: en.Point()})
	}
	parts := make([]*index.ObjectIndex, strips)
	for s, objs := range byStrip {
		if parts[s], err = index.BuildObjectIndex(objs, index.Options{PageSize: 1024}); err != nil {
			t.Fatal(err)
		}
	}
	e, err := NewEngineOverParts(parts, 0, w.engine.FeatureGroups(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// The influence variant's stream, which discards combinations under the
// floor rule before the consumer sees them, answers as the oracle does, to
// the bit, over one object part and over four.
func TestInfluenceBoundedMatchesBruteForce(t *testing.T) {
	queries := 0
	for _, c := range []int{2, 3} {
		for _, kind := range []index.Kind{index.SRT, index.IR2} {
			for _, strips := range []int{1, 4} {
				feats := 220 - 40*c
				w := buildWorld(t, int64(1910+c), 300, feats, c, 16, kind, Options{})
				bounded := partsEngine(t, w, strips, Options{})
				rng := rand.New(rand.NewSource(int64(1920 + c)))
				for trial := 0; trial < 8; trial++ {
					q := w.randQuery(rng, c, InfluenceScore)
					label := fmt.Sprintf("c=%d %v parts=%d trial %d", c, kind, strips, trial)
					got, _, err := bounded.STPS(q)
					if err != nil {
						t.Fatal(err)
					}
					want, err := bounded.BruteForce(q)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("%s: answers differ\nbounded %v\noracle  %v", label, got, want)
					}
					queries++
				}
			}
		}
	}
	if queries < 50 {
		t.Fatalf("only %d queries compared", queries)
	}
}
