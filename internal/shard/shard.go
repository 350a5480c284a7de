// Package shard implements the sharded query engine: a spatial partitioner
// slices the data objects into S cells, each cell becomes a self-contained
// sub-engine (its own object R-tree), and queries run scatter-gather — fan
// out to the shards whose region can still contribute, execute the
// per-shard top-k concurrently on session views, and merge under the
// result total order.
//
// The feature sets are sliced by the same partition function into per-cell
// index parts, but — crucially — every sub-engine sees the SAME feature
// groups spanning all parts (index.FeatureGroup). Per-shard scores are
// therefore exactly the global scores for all three variants: the range
// and influence traversals seed one bound heap with every part root, and
// the NN variant's distance ascent merges all parts, which is precisely
// the cross-border rule — a shard-local NN candidate is final only once
// its distance beats the mindist of every unvisited subtree of every
// neighboring part. Combined with the engine-wide total order on results
// (score descending, id ascending), the merged top-k is byte-identical to
// the single-engine answer.
package shard

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"stpq/internal/core"
	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/obs"
)

// Options configures the sharded engine build.
type Options struct {
	// Shards is the partition count S (at least 2; use the plain engine
	// for S = 1).
	Shards int
	// Strategy selects the spatial partitioner (default HilbertRuns).
	Strategy Strategy
	// Index configures the per-cell object and feature indexes (vocabulary
	// width, page size, kind, ...), exactly as for an unsharded build.
	Index index.Options
	// Core configures the per-shard query engines.
	Core core.Options
}

// subShard is one self-contained sub-engine.
type subShard struct {
	id   int
	cell int
	eng  *core.Engine
	// rect is the MBR of the shard's data objects — the region the
	// per-shard upper bound is evaluated against.
	rect  geo.Rect
	count int
}

// Engine is the sharded query engine. It mirrors the query surface of
// core.Engine (STDS, STPS, ExactScore, ...) — execute a prepared query,
// return its Stats — and is safe for concurrent queries for the same
// reason: all per-query state lives in sessions.
type Engine struct {
	shards []*subShard
	groups []*index.FeatureGroup
	total  int
	part   partitioning
}

// New partitions the objects and features and builds the sub-engines.
// Cells that receive no objects produce no sub-engine (their features
// still become parts of the shared groups, so scores are unaffected).
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

	e := &Engine{groups: groups, total: len(objects), part: part}
	for c := 0; c < part.cells; c++ {
		if len(objCells[c]) == 0 {
			continue
		}
		oidx, err := index.BuildObjectIndex(objCells[c], opts.Index)
		if err != nil {
			return nil, fmt.Errorf("shard: cell %d objects: %w", c, err)
		}
		sub, err := core.NewEngineWithGroups(oidx, groups, opts.Core)
		if err != nil {
			return nil, err
		}
		rect := geo.EmptyRect()
		for _, o := range objCells[c] {
			rect = rect.Extend(o.Location)
		}
		e.shards = append(e.shards, &subShard{id: len(e.shards), cell: c, eng: sub, rect: rect, count: len(objCells[c])})
	}
	return e, nil
}

// NumShards returns the number of built sub-engines (cells that received
// at least one object).
func (e *Engine) NumShards() int { return len(e.shards) }

// NumObjects returns the total number of indexed data objects.
func (e *Engine) NumObjects() int { return e.total }

// FeatureGroups returns the shared feature groups (one per feature set,
// one part per non-empty cell).
func (e *Engine) FeatureGroups() []*index.FeatureGroup { return e.groups }

// AttachMetrics registers every sub-engine's object buffer pool under
// pool="objects_shardNN".
func (e *Engine) AttachMetrics(r *obs.Registry) {
	for _, s := range e.shards {
		s.eng.Objects().AttachMetrics(r, fmt.Sprintf("objects_shard%02d", s.id))
	}
}

// ExactScore delegates to any sub-engine: the score oracle only reads the
// feature groups, which are global.
func (e *Engine) ExactScore(q core.Query, p geo.Point) (float64, error) {
	return e.shards[0].eng.ExactScore(q, p)
}

// PrecomputeVoronoiCells precomputes NN Voronoi cells on every sub-engine
// (requires core.Options.CacheVoronoiCells; each sub-engine holds its own
// cache, so the one-off cost scales with the shard count).
func (e *Engine) PrecomputeVoronoiCells() error {
	for _, s := range e.shards {
		if err := s.eng.PrecomputeVoronoiCells(); err != nil {
			return err
		}
	}
	return nil
}

// STDS answers the query with the data-scan algorithm on every contributing
// shard and merges.
func (e *Engine) STDS(q core.Query) ([]core.Result, core.Stats, error) {
	return e.run("stds", q)
}

// STPS answers the query with the preference-search algorithm on every
// contributing shard and merges.
func (e *Engine) STPS(q core.Query) ([]core.Result, core.Stats, error) {
	return e.run("stps", q)
}

// Parallelism is the default per-query fan-out width (the wave size of the
// scatter loop), narrowed per query by core.Query.Fanout. The gather loop
// runs wave-synchronous: early termination is evaluated between waves, so
// narrower waves prune more aggressively at the cost of less overlap.
func (e *Engine) Parallelism() int { return runtime.GOMAXPROCS(0) }

// cand is one shard with its per-query upper bound.
type cand struct {
	sub   *subShard
	bound float64
}

// orderShards computes every shard's upper bound for the query and sorts
// the scatter wave order: bound descending (required by the pruning rule —
// the loop terminates against the maximum remaining bound, which sorting
// makes the next candidate), then per-shard object count ascending as a
// cost-aware tie-break (equal-bound shards are interchangeable for
// pruning, so the cheaper one goes first and may render the heavier one
// prunable), then shard id. Only the bound-descending primary key affects
// results; the tie-breaks affect cost alone.
func (e *Engine) orderShards(q *core.Query) ([]cand, error) {
	cands := make([]cand, len(e.shards))
	for i, s := range e.shards {
		b, err := s.eng.UpperBound(*q, s.rect)
		if err != nil {
			return nil, err
		}
		cands[i] = cand{sub: s, bound: b}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].bound != cands[j].bound {
			return cands[i].bound > cands[j].bound
		}
		if cands[i].sub.count != cands[j].sub.count {
			return cands[i].sub.count < cands[j].sub.count
		}
		return cands[i].sub.id < cands[j].sub.id
	})
	return cands, nil
}

// UpperBoundAll returns the engine-wide admissible upper bound for the
// query: the maximum per-shard bound. A cluster node serving a sharded DB
// reports it to the coordinator's scatter probe; no object can beat it
// because every object lives inside some shard's MBR.
func (e *Engine) UpperBoundAll(q core.Query) (float64, error) {
	if err := q.Validate(len(e.groups)); err != nil {
		return 0, err
	}
	best := 0.0
	for _, s := range e.shards {
		b, err := s.eng.UpperBound(q, s.rect)
		if err != nil {
			return 0, err
		}
		if b > best {
			best = b
		}
	}
	return best, nil
}

// PlanShard is one shard's entry in a query plan: its scatter position,
// upper bound, and the wave it would run in at the engine's parallelism.
type PlanShard struct {
	ID      int
	Objects int
	Wave    int
	Bound   float64
	Rect    geo.Rect
}

// Plan returns the scatter order the engine would use for the query: every
// shard with its upper bound, sorted by the wave ordering, annotated with
// the wave index at the current parallelism. It performs no object reads
// beyond the root-level bound evaluation and does not execute the query.
func (e *Engine) Plan(q core.Query) ([]PlanShard, error) {
	if err := q.Validate(len(e.groups)); err != nil {
		return nil, err
	}
	cands, err := e.orderShards(&q)
	if err != nil {
		return nil, err
	}
	par := e.Parallelism()
	plan := make([]PlanShard, len(cands))
	for i, c := range cands {
		plan[i] = PlanShard{
			ID:      c.sub.id,
			Objects: c.sub.count,
			Wave:    i / par,
			Bound:   c.bound,
			Rect:    c.sub.rect,
		}
	}
	return plan, nil
}

// shardOut is one shard's contribution to a query.
type shardOut struct {
	sub *subShard
	res []core.Result
	st  core.Stats
	err error
}

// run is the scatter-gather loop. Shards are ordered by their per-variant
// upper bound (descending, ties by shard id) and queried in waves of
// Parallelism; between waves the gather terminates as soon as the k-th
// merged score strictly exceeds the next (hence every) remaining shard's
// bound — a tie cannot be pruned because a skipped shard might hold an
// equal-scoring object with a smaller id. Unqueried shards count as
// pruned. The wave barrier makes the queried set — and so the fanout and
// pruned counters — deterministic for a given parallelism.
func (e *Engine) run(alg string, q core.Query) ([]core.Result, core.Stats, error) {
	if err := q.Validate(len(e.groups)); err != nil {
		return nil, core.Stats{}, err
	}
	start := time.Now()
	cands, err := e.orderShards(&q)
	if err != nil {
		return nil, core.Stats{}, err
	}

	// The planner may cap the wave width per query (core.Query.Fanout):
	// narrower waves evaluate the termination rule more often, wider ones
	// overlap more. The queried set changes, the merged results never do.
	par := e.Parallelism()
	if q.Fanout > 0 && q.Fanout < par {
		par = q.Fanout
	}
	var (
		merged  []core.Result
		total   core.Stats
		gotten  []shardOut
		queried int
	)
	for next := 0; next < len(cands); {
		if len(merged) >= q.K && merged[q.K-1].Score > cands[next].bound {
			break // every remaining shard is strictly out-scored
		}
		end := next + par
		if end > len(cands) {
			end = len(cands)
		}
		wave := make([]shardOut, end-next)
		var wg sync.WaitGroup
		for i := range wave {
			sub := cands[next+i].sub
			wave[i].sub = sub
			wg.Add(1)
			go func(out *shardOut) {
				defer wg.Done()
				if alg == "stds" {
					out.res, out.st, out.err = out.sub.eng.STDS(q)
				} else {
					out.res, out.st, out.err = out.sub.eng.STPS(q)
				}
			}(&wave[i])
		}
		wg.Wait()
		for i := range wave {
			if wave[i].err != nil {
				total.CPUTime = time.Since(start)
				return nil, total, fmt.Errorf("shard %d: %w", wave[i].sub.id, wave[i].err)
			}
			total.Add(wave[i].st)
			merged = mergeTopK(merged, wave[i].res, q.K)
		}
		gotten = append(gotten, wave...)
		queried += len(wave)
		next = end
	}
	pruned := len(cands) - queried

	// CPUTime is the wall clock of the whole scatter-gather (the summed
	// per-shard CPU is visible in the trace); all other counters are sums.
	total.CPUTime = time.Since(start)
	total.ShardFanout = queried
	total.ShardPruned = pruned
	if q.Trace {
		total.Trace = e.assembleTrace(alg, &q, &total, gotten, queried, pruned)
	}
	return merged, total, nil
}

// mergeTopK folds one shard's sorted result list into the merged top-k
// under the result total order.
func mergeTopK(acc, more []core.Result, k int) []core.Result {
	acc = append(acc, more...)
	sort.Slice(acc, func(i, j int) bool { return core.ResultBefore(acc[i], acc[j]) })
	if len(acc) > k {
		acc = acc[:k]
	}
	return acc
}

// assembleTrace builds the merged span tree: one root covering the whole
// scatter-gather with a `shard.NN` child per queried shard (wrapping the
// shard's own span tree when sub-engine tracing produced one). Per-shard
// traces are created inside each shard's own query call, so no span is
// ever touched by two goroutines.
func (e *Engine) assembleTrace(alg string, q *core.Query, total *core.Stats, gotten []shardOut, queried, pruned int) *obs.Span {
	root := &obs.Span{
		Name:          alg + "." + q.Variant.String() + ".scatter",
		Count:         1,
		Duration:      total.CPUTime,
		LogicalReads:  total.LogicalReads,
		PhysicalReads: total.PhysicalReads,
		RequestID:     q.RequestID,
		Counters: map[string]int64{
			"shards_fanout": int64(queried),
			"shards_pruned": int64(pruned),
		},
	}
	for _, o := range gotten {
		wrap := &obs.Span{
			Name:          fmt.Sprintf("shard.%02d", o.sub.id),
			Count:         1,
			Duration:      o.st.CPUTime,
			LogicalReads:  o.st.LogicalReads,
			PhysicalReads: o.st.PhysicalReads,
		}
		if o.st.Trace != nil {
			wrap.Children = []*obs.Span{o.st.Trace}
		}
		root.Children = append(root.Children, wrap)
	}
	return root
}
