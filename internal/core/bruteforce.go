package core

import (
	"math"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/rtree"
)

// BruteForce computes the exact top-k answer by scanning every data
// object against every feature object with the plain score definitions of
// Sections 3 and 7. It exists as the correctness oracle for the tests and
// experiment sanity checks; it performs no pruning whatsoever.
func (e *Engine) BruteForce(q Query) ([]Result, error) {
	if err := q.Validate(len(e.features)); err != nil {
		return nil, err
	}
	feats, err := e.allFeatures()
	if err != nil {
		return nil, err
	}
	objs, err := e.allObjects()
	if err != nil {
		return nil, err
	}
	results := make([]Result, 0, len(objs))
	for _, obj := range objs {
		score := e.exactScoreOf(q, obj.Point(), feats)
		results = append(results, Result{ID: obj.ItemID, Location: obj.Point(), Score: score})
	}
	sortResults(results)
	if len(results) > q.K {
		results = results[:q.K]
	}
	return results, nil
}

// ExactScore computes τ(p) for an arbitrary location by brute force — the
// per-object oracle used to validate reported result scores.
func (e *Engine) ExactScore(q Query, p geo.Point) (float64, error) {
	if err := q.Validate(len(e.features)); err != nil {
		return 0, err
	}
	feats, err := e.allFeatures()
	if err != nil {
		return 0, err
	}
	return e.exactScoreOf(q, p, feats), nil
}

// allFeatures loads the complete feature sets from the indexes.
func (e *Engine) allFeatures() ([][]rtree.Entry, error) {
	feats := make([][]rtree.Entry, len(e.features))
	for i, f := range e.features {
		all, err := f.All()
		if err != nil {
			return nil, err
		}
		feats[i] = all
	}
	return feats, nil
}

// exactScoreOf evaluates τ(p) = Σ_i τ_i(p) literally per the definitions.
func (e *Engine) exactScoreOf(q Query, p geo.Point, feats [][]rtree.Entry) float64 {
	total := 0.0
	for i := range feats {
		qk := q.keywordsFor(i)
		switch q.Variant {
		case RangeScore:
			best := 0.0
			for _, t := range feats[i] {
				if t.Point().Dist(p) > q.Radius {
					continue
				}
				if !t.Keywords.Intersects(qk.Set) {
					continue
				}
				if s := index.Score(t, qk); s > best {
					best = s
				}
			}
			total += best
		case InfluenceScore:
			best := 0.0
			for _, t := range feats[i] {
				if !t.Keywords.Intersects(qk.Set) {
					continue
				}
				s := index.Score(t, qk) * math.Exp2(-t.Point().Dist(p)/q.Radius)
				if s > best {
					best = s
				}
			}
			total += best
		case NearestNeighborScore:
			bestDist := math.Inf(1)
			var nn *rtree.Entry
			for j := range feats[i] {
				t := &feats[i][j]
				if d := t.Point().Dist(p); d < bestDist {
					bestDist = d
					nn = t
				}
			}
			if nn != nil && nn.Keywords.Intersects(qk.Set) {
				total += index.Score(*nn, qk)
			}
		}
	}
	return total
}
