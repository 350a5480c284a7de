package ingest

import (
	"sort"
	"sync"

	"stpq/internal/core"
	"stpq/internal/geo"
	"stpq/internal/index"
)

// Overlay answers top-k queries over base + delta with the ordering
// semantics of a from-scratch rebuild. It wraps a core.Engine built over
// the tombstone-filtered base object tree and feature groups that append a
// cloned delta part per set — so the engine's own traversal already sees
// the merged feature universe — and merges the handful of delta-resident
// objects into the answer by exact scoring.
//
// Correctness: both STDS and STPS zero-fill — they return every complete
// object (score 0 included) while the accumulator is not full — so the
// engine's top-k over base-survivor objects plus ALL delta objects is a
// superset of the true top-k; sorting the union under core.ResultBefore
// and truncating to k is byte-identical to the oracle. Per-set sums run in
// set order on both sides and max is order-independent, so the float
// values agree bit for bit.
type Overlay struct {
	eng *core.Engine
	// delta objects in ascending id order (determinism of the merge loop).
	delta []index.Object
	n     int

	// scorer is the amortized exact-score closure over the feature
	// universe, materialized lazily on the first query that has delta
	// objects to merge and reused for the overlay's lifetime — the
	// wrapped engine is immutable for one generation, so one
	// materialization serves every query instead of one full feature
	// scan per delta object per query.
	scorerOnce sync.Once
	scorer     func(q core.Query, p geo.Point) float64
	scorerErr  error
}

// NewOverlay wraps eng. deltaObjects are the objects living only in the
// delta; numObjects is the live object count of the merged view.
func NewOverlay(eng *core.Engine, deltaObjects map[int64]index.Object, numObjects int) *Overlay {
	objs := make([]index.Object, 0, len(deltaObjects))
	for _, o := range deltaObjects {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i].ID < objs[j].ID })
	return &Overlay{eng: eng, delta: objs, n: numObjects}
}

// Engine exposes the wrapped engine (tests and Voronoi precomputation).
func (o *Overlay) Engine() *core.Engine { return o.eng }

// STDS runs the base engine's STDS and merges the delta objects.
func (o *Overlay) STDS(q core.Query) ([]core.Result, core.Stats, error) {
	res, st, err := o.eng.STDS(q)
	if err != nil {
		return nil, st, err
	}
	res, err = o.mergeDelta(res, q)
	return res, st, err
}

// STPS runs the base engine's STPS and merges the delta objects.
func (o *Overlay) STPS(q core.Query) ([]core.Result, core.Stats, error) {
	res, st, err := o.eng.STPS(q)
	if err != nil {
		return nil, st, err
	}
	res, err = o.mergeDelta(res, q)
	return res, st, err
}

// mergeDelta folds every delta object into the engine's top-k: exact-score
// each one against the merged feature view, append, re-sort under the
// result total order, truncate to k.
func (o *Overlay) mergeDelta(base []core.Result, q core.Query) ([]core.Result, error) {
	if len(o.delta) == 0 {
		return base, nil
	}
	o.scorerOnce.Do(func() { o.scorer, o.scorerErr = o.eng.ExactScorer() })
	if o.scorerErr != nil {
		return nil, o.scorerErr
	}
	merged := make([]core.Result, 0, len(base)+len(o.delta))
	merged = append(merged, base...)
	for _, ob := range o.delta {
		merged = append(merged, core.Result{ID: ob.ID, Location: ob.Location, Score: o.scorer(q, ob.Location)})
	}
	sort.Slice(merged, func(i, j int) bool { return core.ResultBefore(merged[i], merged[j]) })
	if len(merged) > q.K {
		merged = merged[:q.K]
	}
	return merged, nil
}

// UpperBoundAll returns an admissible upper bound on the merged view's
// best possible score: the base object MBR extended by every delta-only
// object location, evaluated against the merged feature groups (which
// already include the delta part per set).
func (o *Overlay) UpperBoundAll(q core.Query) (float64, error) {
	root, err := o.eng.Objects().Tree().RootEntry()
	if err != nil {
		return 0, err
	}
	rect := root.Rect
	for _, ob := range o.delta {
		rect = rect.Extend(ob.Location)
	}
	if rect.IsEmpty() {
		return 0, nil
	}
	return o.eng.UpperBound(q, rect)
}

// ExactScore scores one location against the merged feature view.
func (o *Overlay) ExactScore(q core.Query, p geo.Point) (float64, error) {
	return o.eng.ExactScore(q, p)
}

// FeatureGroups returns the merged feature groups (tombstoned base parts
// plus the delta clone part per set).
func (o *Overlay) FeatureGroups() []*index.FeatureGroup { return o.eng.FeatureGroups() }

// NumObjects returns the live object count of the merged view.
func (o *Overlay) NumObjects() int { return o.n }

// DeltaObjects returns the number of objects living only in the delta —
// the size of the unmerged overlay, exposed as a gauge by the ingest
// pipeline.
func (o *Overlay) DeltaObjects() int { return len(o.delta) }

// PrecomputeVoronoiCells warms the wrapped engine's Voronoi cache.
func (o *Overlay) PrecomputeVoronoiCells() error { return o.eng.PrecomputeVoronoiCells() }
