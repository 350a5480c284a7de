// Package core implements the query processing algorithms of the paper:
// the Spatio-Textual Data Scan baseline (STDS, Section 5), the
// Spatio-Textual Preference Search algorithm (STPS, Section 6), and the
// unified framework for the three score variants — range (Definition 2),
// influence (Definition 6) and nearest neighbor (Definition 7).
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/obs"
	"stpq/internal/storage"
)

// Variant selects the preference-score definition (paper Section 7).
type Variant int

const (
	// RangeScore is Definition 2: τ_i(p) = max{s(t) : dist(p,t) ≤ r,
	// sim(t,W_i) > 0}.
	RangeScore Variant = iota
	// InfluenceScore is Definition 6: τ_i(p) = max{s(t)·2^(−dist(p,t)/r) :
	// sim(t,W_i) > 0} (no hard distance constraint).
	InfluenceScore
	// NearestNeighborScore is Definition 7: τ_i(p) = s(t) where t is p's
	// spatial nearest neighbor in F_i, provided sim(t,W_i) > 0.
	NearestNeighborScore
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case RangeScore:
		return "range"
	case InfluenceScore:
		return "influence"
	case NearestNeighborScore:
		return "nearest-neighbor"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// Query is a top-k spatio-textual preference query Q = (k, r, λ, W_1..W_c)
// (paper Problem 1).
type Query struct {
	// K is the number of data objects to return.
	K int
	// Radius is the query range r (normalized space). For the influence
	// variant it is the decay length; unused by the NN variant.
	Radius float64
	// Lambda is the smoothing parameter λ ∈ [0,1] between the non-spatial
	// score and the textual similarity (Definition 1).
	Lambda float64
	// Keywords holds one query keyword set W_i per feature set F_i.
	Keywords []kwset.Set
	// Variant selects the score definition.
	Variant Variant
	// Similarity selects the textual similarity measure of Definition 1
	// (zero value = Jaccard, the paper's choice).
	Similarity index.Similarity
	// RequestID is the request-scoped identity the query runs under; it is
	// stamped onto the span tree and the event record, never onto results.
	RequestID string
	// Trace collects a phase-level span tree into Stats.Trace. The caller
	// has already taken the tracing decision (per-query opt-in, sampling
	// rate, slow-query threshold); the disabled path costs one nil check
	// per instrumentation point.
	Trace bool
}

// Validate checks query parameters against the engine shape.
func (q *Query) Validate(numFeatureSets int) error {
	if q.K <= 0 {
		return errors.New("core: query K must be positive")
	}
	if len(q.Keywords) != numFeatureSets {
		return fmt.Errorf("core: query has %d keyword sets, engine has %d feature sets",
			len(q.Keywords), numFeatureSets)
	}
	if q.Lambda < 0 || q.Lambda > 1 {
		return fmt.Errorf("core: lambda %v outside [0,1]", q.Lambda)
	}
	if q.Variant != NearestNeighborScore && q.Radius <= 0 {
		return fmt.Errorf("core: radius %v must be positive", q.Radius)
	}
	return nil
}

// keywordsFor returns the per-set query keywords bundle.
func (q *Query) keywordsFor(i int) index.QueryKeywords {
	return index.QueryKeywords{Set: q.Keywords[i], Lambda: q.Lambda, Sim: q.Similarity}
}

// Result is one data object of the top-k answer.
type Result struct {
	ID       int64
	Location geo.Point
	// Score is the spatio-textual preference score τ(p).
	Score float64
}

// Stats reports the cost of one query execution, mirroring the paper's
// metric: CPU time (measured) plus I/O modeled from physical page reads.
// For the NN variant the Voronoi-construction share is reported separately
// (the striped segments of Figures 13–14).
type Stats struct {
	// CPUTime is the measured wall time of query processing.
	CPUTime time.Duration
	// IOTime is the modeled disk time: PhysicalReads × the storage
	// layer's default CostModel.PerPage (100 µs).
	IOTime time.Duration
	// LogicalReads and PhysicalReads count page requests across all
	// indexes touched by the query.
	LogicalReads  int64
	PhysicalReads int64
	// VoronoiCPUTime and VoronoiReads isolate the Voronoi-cell
	// construction cost of the NN variant.
	VoronoiCPUTime time.Duration
	VoronoiReads   int64
	// Combinations counts valid feature combinations emitted by STPS.
	Combinations int
	// FeaturesPulled counts feature objects retrieved from feature
	// indexes.
	FeaturesPulled int
	// LeafExpansions and InternalExpansions count the feature-index pages
	// the feature streams expanded — every page an STPS stream or an STDS
	// score computation reads — by the page's level. Their sum is at most
	// LogicalReads, which also counts object and Voronoi pages.
	LeafExpansions     int
	InternalExpansions int
	// ObjectsScored counts data objects whose score was computed (STDS)
	// or retrieved (STPS).
	ObjectsScored int
	// ShardFanout and ShardPruned split a partitioned engine's shard
	// parts into those the query descended into and those it never read a
	// page of: no combination's region reached their MBR (range, NN) or
	// their best possible score stayed below the threshold (influence).
	// STDS scans every part. Both are zero on unpartitioned engines.
	ShardFanout int
	ShardPruned int
	// Trace is the query's span tree when the query asked for one
	// (Query.Trace), nil otherwise. The root span covers the whole query;
	// its page-read deltas equal LogicalReads/PhysicalReads.
	Trace *obs.Span
}

// Total returns CPU plus modeled I/O time — the paper's bar height.
func (s Stats) Total() time.Duration { return s.CPUTime + s.IOTime }

// Add accumulates other into s (for averaging over query workloads).
func (s *Stats) Add(other Stats) {
	s.CPUTime += other.CPUTime
	s.IOTime += other.IOTime
	s.LogicalReads += other.LogicalReads
	s.PhysicalReads += other.PhysicalReads
	s.VoronoiCPUTime += other.VoronoiCPUTime
	s.VoronoiReads += other.VoronoiReads
	s.Combinations += other.Combinations
	s.FeaturesPulled += other.FeaturesPulled
	s.LeafExpansions += other.LeafExpansions
	s.InternalExpansions += other.InternalExpansions
	s.ObjectsScored += other.ObjectsScored
	s.ShardFanout += other.ShardFanout
	s.ShardPruned += other.ShardPruned
}

// Scale divides all counters by n, yielding per-query averages.
func (s Stats) Scale(n int) Stats {
	if n <= 0 {
		return s
	}
	d := time.Duration(n)
	return Stats{
		CPUTime:            s.CPUTime / d,
		IOTime:             s.IOTime / d,
		LogicalReads:       s.LogicalReads / int64(n),
		PhysicalReads:      s.PhysicalReads / int64(n),
		VoronoiCPUTime:     s.VoronoiCPUTime / d,
		VoronoiReads:       s.VoronoiReads / int64(n),
		Combinations:       s.Combinations / n,
		FeaturesPulled:     s.FeaturesPulled / n,
		LeafExpansions:     s.LeafExpansions / n,
		InternalExpansions: s.InternalExpansions / n,
		ObjectsScored:      s.ObjectsScored / n,
		ShardFanout:        s.ShardFanout / n,
		ShardPruned:        s.ShardPruned / n,
	}
}

// Options tunes algorithm behaviour without affecting results.
type Options struct {
	// BatchSTDS enables the batched score computation of Section 5
	// ("Performance improvements"): objects are processed one object-tree
	// leaf at a time, sharing feature-index traversals. Applies to the
	// range variant. The zero value is off — the single-object form the
	// ablation measures. Every DB runs with it on; the field remains
	// because the benchmark module (bench/) constructs engines with it.
	BatchSTDS bool
}

// ioCost converts a query's physical reads into its modeled I/O time.
var ioCost = storage.DefaultCostModel()

// Engine binds the data objects and the feature sets and executes prepared
// queries with either algorithm, returning their Stats; metrics and event
// records are the caller's business. Both sides are ordered lists of index
// parts — one part each for a plain DB, one per cell for a spatially
// partitioned one, a tombstone-filtered base part plus a small delta part
// while live mutations are pending. The feature streams, the combination
// generator and the threshold never look at a data object, so they run once
// per query whatever the layout; only the object-side steps loop over the
// object parts. Once built, an Engine is safe for concurrent queries: each
// STDS/STPS call runs in a private session whose page reads are charged to a
// per-query accumulator, while the underlying buffer pools (shared page
// caches) and the NN variant's Voronoi cell store are internally
// synchronized.
type Engine struct {
	objects []*index.ObjectIndex
	// rects[i] is the MBR of objects[i], read off its root once at
	// construction (the parts are immutable under an engine) so that a
	// probe can skip a part without a page read. Nil on a one-part engine,
	// which never skips its part and so never warms a page early.
	rects []geo.Rect
	// shards is how many leading object parts are cells of a spatial
	// partition — the parts Stats.ShardFanout/ShardPruned count; 0 when the
	// objects are not partitioned.
	shards   int
	features []*index.FeatureGroup
	opts     Options
	// cells is the NN variant's Voronoi cell store, shared by the root
	// engine and every session of it (stps.go).
	cells *cellStore
	// reads is the per-query read accumulator of a session engine; nil on
	// the root engine.
	reads *storage.Stats
	// scratches recycles queryScratch state (session views, candidate
	// heaps, combination buffers) across queries; nil on sessions.
	scratches *sync.Pool
	// scratch is the per-query scratch of a session; nil on the root engine.
	scratch *queryScratch
}

// session returns a per-query view of the engine from the scratch pool:
// the same immutable index structure and shared page caches, but with every
// page read charged to a fresh private accumulator. Pair with
// releaseSession. Idempotent on an engine that already is a session.
func (e *Engine) session() *Engine {
	if e.reads != nil {
		return e
	}
	sc := e.scratches.Get().(*queryScratch)
	sc.reset()
	return sc.sess
}

// NewEngine creates an engine over one object index and plain feature
// indexes, each becoming a single-part feature group. All feature indexes
// must share the engine's vocabulary width; queries carry one keyword set
// per feature index.
func NewEngine(objects *index.ObjectIndex, features []*index.FeatureIndex, opts Options) (*Engine, error) {
	if len(features) == 0 {
		return nil, errors.New("core: at least one feature index required")
	}
	for i, f := range features {
		if f == nil {
			return nil, fmt.Errorf("core: feature index %d is nil", i)
		}
	}
	groups, err := index.GroupEach(features)
	if err != nil {
		return nil, err
	}
	return NewEngineOverParts([]*index.ObjectIndex{objects}, 0, groups, opts)
}

// NewEngineOverParts creates an engine whose data objects and feature sets
// are forests of index parts. Every object id lives in exactly one part.
// The first shards object parts are the cells of a spatial partition (0
// when there is none); that only decides what Stats.ShardFanout and
// ShardPruned count.
func NewEngineOverParts(objects []*index.ObjectIndex, shards int, features []*index.FeatureGroup, opts Options) (*Engine, error) {
	if len(objects) == 0 {
		return nil, errors.New("core: at least one object index required")
	}
	if shards < 0 || shards > len(objects) {
		return nil, fmt.Errorf("core: %d shard parts among %d object parts", shards, len(objects))
	}
	if len(features) == 0 {
		return nil, errors.New("core: at least one feature group required")
	}
	for i, g := range features {
		if g == nil {
			return nil, fmt.Errorf("core: feature group %d is nil", i)
		}
	}
	for i, part := range objects {
		if part == nil {
			return nil, fmt.Errorf("core: object index %d is nil", i)
		}
	}
	e := &Engine{objects: objects, shards: shards, features: features, opts: opts}
	if len(objects) > 1 {
		e.rects = make([]geo.Rect, len(objects))
		for i, part := range objects {
			root, err := part.Tree().RootEntry()
			if err != nil {
				return nil, err
			}
			e.rects[i] = root.Rect
		}
	}
	e.cells = &cellStore{}
	e.scratches = &sync.Pool{New: func() interface{} { return newQueryScratch(e) }}
	return e, nil
}

// ObjectParts returns the engine's data-object index parts.
func (e *Engine) ObjectParts() []*index.ObjectIndex { return e.objects }

// NumObjects returns the number of indexed data objects.
func (e *Engine) NumObjects() int {
	n := 0
	for _, part := range e.objects {
		n += part.Len()
	}
	return n
}

// FeatureGroups returns the engine's feature sets as groups of index parts
// (single-part groups on an unsharded engine).
func (e *Engine) FeatureGroups() []*index.FeatureGroup { return e.features }

// snapshotReads returns the cumulative I/O counters visible to this
// engine: the private per-query accumulator in a session, or the summed
// lifetime pool counters on the root engine. Within a session, snapshots
// taken before and after a phase diff to exactly that query's reads even
// when other queries run concurrently.
func (e *Engine) snapshotReads() storage.Stats {
	if e.reads != nil {
		return *e.reads
	}
	var s storage.Stats
	for _, part := range e.objects {
		s.Add(part.Stats())
	}
	for _, f := range e.features {
		s.Add(f.Stats())
	}
	return s
}

// finishStats completes a Stats from a start snapshot and start time.
func (e *Engine) finishStats(st *Stats, before storage.Stats, start time.Time) {
	diff := e.snapshotReads().Sub(before)
	st.LogicalReads = diff.LogicalReads
	st.PhysicalReads = diff.PhysicalReads
	st.IOTime = ioCost.IOTime(diff.PhysicalReads)
	st.CPUTime = time.Since(start)
}

// newTrace opens a span trace for one query, or returns the nil (no-op)
// tracer when tracing is off. The read source diffs the session's private
// read accumulator, so span deltas line up exactly with Stats even under
// concurrent queries.
func (e *Engine) newTrace(name string, q *Query) *obs.Trace {
	if !q.Trace {
		return nil
	}
	tr := obs.NewTrace(name, func() (int64, int64) {
		s := e.snapshotReads()
		return s.LogicalReads, s.PhysicalReads
	})
	tr.SetRequestID(q.RequestID)
	return tr
}

// finishTrace closes the trace, annotates the root span with the query's
// logical counters and stores it in stats. It must run immediately before
// finishStats: no page is read between the two calls, so the root span's
// read deltas equal the Stats counters.
func finishTrace(tr *obs.Trace, stats *Stats) {
	if tr == nil {
		return
	}
	root := tr.Finish()
	root.Add("combinations", int64(stats.Combinations))
	root.Add("features_pulled", int64(stats.FeaturesPulled))
	root.Add("objects_scored", int64(stats.ObjectsScored))
	if stats.ShardFanout+stats.ShardPruned > 0 {
		root.Add("shards_fanout", int64(stats.ShardFanout))
		root.Add("shards_pruned", int64(stats.ShardPruned))
	}
	stats.Trace = root
}

// UpperBound returns a sound upper bound on τ(p) for every location p
// inside rect: per feature set, the best root-level score bound over the
// parts that can contribute, tightened per variant — range parts farther
// than r from rect are skipped entirely (no feature of theirs can be in
// range of any p ∈ rect), influence bounds decay by 2^(−mindist/r), NN
// keeps the raw textual bound (the nearest neighbor can be arbitrarily
// close). EXPLAIN evaluates it per shard MBR.
func (e *Engine) UpperBound(q Query, rect geo.Rect) (float64, error) {
	if err := q.Validate(len(e.features)); err != nil {
		return 0, err
	}
	total := 0.0
	for i, g := range e.features {
		qk := q.keywordsFor(i)
		if g.Len() == 0 || qk.Set.IsEmpty() {
			continue
		}
		best := 0.0
		for _, part := range g.Parts() {
			if part.Len() == 0 {
				continue
			}
			root, err := part.Tree().RootEntry()
			if err != nil {
				return 0, err
			}
			if !qk.Relevant(&root) {
				continue
			}
			b := qk.Bound(&root)
			switch q.Variant {
			case RangeScore:
				if geo.RectMinDist(rect, root.Rect) > q.Radius {
					continue
				}
			case InfluenceScore:
				b *= math.Exp2(-geo.RectMinDist(rect, root.Rect) / q.Radius)
			}
			if b > best {
				best = b
			}
		}
		total += best
	}
	return total, nil
}

// virtualScore is the score of the virtual feature ∅ (paper Section 6.1).
const virtualScore = 0.0

// negInf is used as the "no threshold" sentinel.
var negInf = math.Inf(-1)
