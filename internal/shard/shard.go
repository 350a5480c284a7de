// Package shard lays a DB's data out in S spatial cells: a partitioner
// slices the data objects — and, by the same function, every feature set —
// into cells, each non-empty cell becomes one object index part and one
// feature index part per set, and ONE core.Engine runs over all of them.
//
// Sharding is a data layout, not a parallelism feature. The feature
// streams, the combination generator and the threshold of STPS never look
// at a data object, so they run once per query whatever S is; the only
// object-dependent step — retrieving the objects that qualify for one
// combination — visits just the parts whose MBR the combination's region
// reaches. Scores are global because every traversal of a feature set seeds
// one heap with the roots of all its parts (index.FeatureGroup), and the NN
// variant's distance ascent merges them the same way, which is exactly the
// cross-border rule. With the engine-wide total order on results (score
// descending, id ascending) the top-k is byte-identical to the one-part
// answer.
//
// What is left here is the partitioning, the per-cell rectangle and count,
// persistence, and Plan — the per-cell score bounds EXPLAIN prints.
package shard

import (
	"errors"
	"fmt"

	"stpq/internal/core"
	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/obs"
)

// Options configures the sharded build.
type Options struct {
	// Shards is the partition count S (at least 2; use the plain engine
	// for S = 1).
	Shards int
	// Strategy selects the spatial partitioner (default HilbertRuns).
	Strategy Strategy
	// Index configures the per-cell object and feature indexes (vocabulary
	// width, page size, kind, ...), exactly as for an unsharded build.
	Index index.Options
	// Core configures the query engine.
	Core core.Options
}

// cellShard describes one non-empty cell; its object index is the part of
// the same position in the engine.
type cellShard struct {
	cell int
	// rect is the MBR of the cell's data objects.
	rect  geo.Rect
	count int
}

// Engine is a spatially partitioned layout with the engine that queries it.
type Engine struct {
	shards []cellShard
	eng    *core.Engine
	part   partitioning
}

// New partitions the objects and features and builds one engine over the
// parts. Cells that receive no objects produce no object part (their
// features still become parts of the feature groups, so scores are
// unaffected).
func New(objects []index.Object, featureSets [][]index.Feature, opts Options) (*Engine, error) {
	if opts.Shards < 2 {
		return nil, fmt.Errorf("shard: shard count %d must be at least 2", opts.Shards)
	}
	if len(objects) == 0 {
		return nil, errors.New("shard: at least one data object required")
	}
	if len(featureSets) == 0 {
		return nil, errors.New("shard: at least one feature set required")
	}
	part, err := buildPartitioning(objects, opts.Shards, opts.Strategy)
	if err != nil {
		return nil, err
	}

	objCells := make([][]index.Object, part.cells)
	for _, o := range objects {
		c := part.assign(o.Location)
		objCells[c] = append(objCells[c], o)
	}

	groups := make([]*index.FeatureGroup, len(featureSets))
	for i, fs := range featureSets {
		featCells := make([][]index.Feature, part.cells)
		for _, f := range fs {
			c := part.assign(f.Location)
			featCells[c] = append(featCells[c], f)
		}
		var parts []*index.FeatureIndex
		for c := 0; c < part.cells; c++ {
			if len(featCells[c]) == 0 {
				continue
			}
			p, err := index.BuildFeatureIndex(featCells[c], opts.Index)
			if err != nil {
				return nil, fmt.Errorf("shard: feature set %d cell %d: %w", i, c, err)
			}
			parts = append(parts, p)
		}
		if len(parts) == 0 {
			// Empty feature set: one empty part, matching the unsharded
			// engine's single empty index.
			p, err := index.BuildFeatureIndex(nil, opts.Index)
			if err != nil {
				return nil, fmt.Errorf("shard: feature set %d: %w", i, err)
			}
			parts = append(parts, p)
		}
		g, err := index.NewFeatureGroup(parts...)
		if err != nil {
			return nil, err
		}
		groups[i] = g
	}

	e := &Engine{part: part}
	var oparts []*index.ObjectIndex
	for c := 0; c < part.cells; c++ {
		if len(objCells[c]) == 0 {
			continue
		}
		oidx, err := index.BuildObjectIndex(objCells[c], opts.Index)
		if err != nil {
			return nil, fmt.Errorf("shard: cell %d objects: %w", c, err)
		}
		rect := geo.EmptyRect()
		for _, o := range objCells[c] {
			rect = rect.Extend(o.Location)
		}
		oparts = append(oparts, oidx)
		e.shards = append(e.shards, cellShard{cell: c, rect: rect, count: len(objCells[c])})
	}
	e.eng, err = core.NewEngineOverParts(oparts, len(oparts), groups, opts.Core)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// Core returns the engine that answers queries over the parts.
func (e *Engine) Core() *core.Engine { return e.eng }

// NumShards returns the number of object parts (cells that received at
// least one object).
func (e *Engine) NumShards() int { return len(e.shards) }

// AttachMetrics registers every object part's buffer pool under
// pool="objects_shardNN".
func (e *Engine) AttachMetrics(r *obs.Registry) {
	for id, part := range e.eng.ObjectParts() {
		part.AttachMetrics(r, fmt.Sprintf("objects_shard%02d", id))
	}
}

// STPS answers the query with the preference-search algorithm.
func (e *Engine) STPS(q core.Query) ([]core.Result, core.Stats, error) { return e.eng.STPS(q) }

// PlanShard is one shard's entry in a query plan: its size, its MBR and the
// best score any object inside that MBR can reach under the query.
type PlanShard struct {
	ID      int
	Objects int
	Bound   float64
	Rect    geo.Rect
}

// Plan returns every shard with its upper bound for the query, in part
// order. It reads only feature-part roots and does not execute the query.
func (e *Engine) Plan(q core.Query) ([]PlanShard, error) {
	plan := make([]PlanShard, len(e.shards))
	for id, s := range e.shards {
		b, err := e.eng.UpperBound(q, s.rect)
		if err != nil {
			return nil, err
		}
		plan[id] = PlanShard{ID: id, Objects: s.count, Bound: b, Rect: s.rect}
	}
	return plan, nil
}
