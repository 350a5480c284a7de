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

	"stpq/internal/approx"
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
	// has already taken the tracing decision (explicit mode, engine toggle,
	// sampler, slow-query threshold); the disabled path costs one nil check
	// per instrumentation point.
	Trace bool
	// Fanout, when positive, caps the sharded engine's scatter wave width
	// for this query — the planner's cost-based fan-out decision. 0 keeps
	// the engine default. Results are unaffected at any width: the
	// between-wave termination rule prunes only strictly out-scored
	// shards. Not part of the query shape.
	Fanout int
	// Approx, when non-nil, runs the query in the approximate fast tier:
	// MinHash/LSH candidate pruning (and, in signature mode with
	// SkipVerify, estimated similarity scoring) replace exact textual
	// verification. The request carries the lowered LSH parameters and
	// the shared atomic pruning counters; query copies (shard fan-out,
	// sessions) alias the same request, so counters aggregate across the
	// whole logical query. nil = exact mode, the default.
	Approx *approx.Request
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
	return index.QueryKeywords{Set: q.Keywords[i], Lambda: q.Lambda, Sim: q.Similarity, Approx: q.Approx}
}

// Mode returns the query's execution-mode label: "exact" or "approx".
func (q *Query) Mode() string {
	if q.Approx != nil {
		return "approx"
	}
	return "exact"
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
	// IOTime is the modeled disk time: PhysicalReads × CostModel.PerPage.
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
	// ObjectsScored counts data objects whose score was computed (STDS)
	// or retrieved (STPS).
	ObjectsScored int
	// ShardFanout and ShardPruned count shards queried / skipped by a
	// sharded engine's scatter-gather; zero on unsharded engines.
	ShardFanout int
	ShardPruned int
	// ApproxCandidates, ApproxPruned and ApproxSkippedReads report the
	// approximate tier's work: leaf features checked against the MinHash
	// sketch, those the LSH band filter rejected, and verification page
	// reads the skip-verify path avoided. Zero in exact mode. They are
	// loaded once per logical query from the shared approx request (by the
	// caller that prepared the query), so per-shard sub-stats leave them zero.
	ApproxCandidates   int64
	ApproxPruned       int64
	ApproxSkippedReads int64
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
	s.ObjectsScored += other.ObjectsScored
	s.ShardFanout += other.ShardFanout
	s.ShardPruned += other.ShardPruned
	s.ApproxCandidates += other.ApproxCandidates
	s.ApproxPruned += other.ApproxPruned
	s.ApproxSkippedReads += other.ApproxSkippedReads
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
		ObjectsScored:      s.ObjectsScored / n,
		ShardFanout:        s.ShardFanout / n,
		ShardPruned:        s.ShardPruned / n,
		ApproxCandidates:   s.ApproxCandidates / int64(n),
		ApproxPruned:       s.ApproxPruned / int64(n),
		ApproxSkippedReads: s.ApproxSkippedReads / int64(n),
	}
}

// PullStrategy selects how STPS chooses the next feature set to access
// (paper Section 6.3).
type PullStrategy int

const (
	// PullPrioritized is Definition 5: access the feature set responsible
	// for the current threshold value.
	PullPrioritized PullStrategy = iota
	// PullRoundRobin cycles through the feature sets (the paper's
	// "simple alternative", kept for ablation).
	PullRoundRobin
)

// String implements fmt.Stringer.
func (p PullStrategy) String() string {
	if p == PullRoundRobin {
		return "round-robin"
	}
	return "prioritized"
}

// CombinationMode selects how STPS enumerates feature combinations.
// Both modes emit the same combinations in the same score order; they
// differ in which part of the combination space they keep materialized.
type CombinationMode int

const (
	// CombinationsAuto (default) picks per variant: eager for the range
	// score — whose validity filter (Definition 4) discards most of the
	// space at generation — and lazy for the influence and NN variants,
	// where every combination is valid and eager materialization would
	// hold the whole cross product.
	CombinationsAuto CombinationMode = iota
	// CombinationsEager is the paper's literal Algorithm 4 line 9: every
	// pulled feature immediately materializes all its valid combinations
	// (accelerated by a spatial grid over retrieved features).
	CombinationsEager
	// CombinationsLazy walks the combination lattice rank-join style:
	// pop the best index vector, push its successors. Memory stays
	// proportional to the emitted frontier.
	CombinationsLazy
)

// String implements fmt.Stringer.
func (m CombinationMode) String() string {
	switch m {
	case CombinationsEager:
		return "eager"
	case CombinationsLazy:
		return "lazy"
	default:
		return "auto"
	}
}

// Options tunes algorithm behaviour without affecting results.
type Options struct {
	// Pull selects the STPS pulling strategy.
	Pull PullStrategy
	// BatchSTDS enables the batched score computation of Section 5
	// ("Performance improvements"): objects are processed one object-tree
	// leaf at a time, sharing feature-index traversals. Applies to the
	// range variant; default on.
	BatchSTDS bool
	// Combinations selects how STPS enumerates feature combinations.
	Combinations CombinationMode
	// CacheVoronoiCells keeps Voronoi cells computed by the NN variant
	// across queries — the precomputation the paper suggests for static
	// data ("for static data the Voronoi cells can be pre-computed in a
	// special structure", Section 8.5). Cells can also be fully
	// precomputed up front with Engine.PrecomputeVoronoiCells.
	CacheVoronoiCells bool
	// CostModel converts physical reads to modeled I/O time.
	CostModel storage.CostModel
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.CostModel.PerPage == 0 {
		o.CostModel = storage.DefaultCostModel()
	}
	return o
}

// Engine binds the object index and the feature indexes and executes
// prepared queries with either algorithm, returning their Stats; metrics
// and event records are the caller's business. Once built, an Engine is safe for
// concurrent queries: each STDS/STPS call runs in a private session whose
// page reads are charged to a per-query accumulator, while the underlying
// buffer pools (shared page caches) are internally synchronized.
type Engine struct {
	objects  *index.ObjectIndex
	features []*index.FeatureGroup
	opts     Options
	// cells is the cross-query Voronoi cell cache (Options.
	// CacheVoronoiCells); nil when caching is off.
	cells *cellCache
	// reads is the per-query read accumulator of a session engine; nil on
	// the root engine.
	reads *storage.Stats
	// scratches recycles queryScratch state (session views, candidate
	// heaps, combination buffers) across queries; set on root engines
	// built through the constructors, nil on sessions.
	scratches *sync.Pool
	// scratch is the per-query scratch of a pooled session; nil on the
	// root engine.
	scratch *queryScratch
}

// cellCache is the lock-protected cross-query Voronoi cell cache.
type cellCache struct {
	mu sync.RWMutex
	m  map[cellKey]geo.Polygon
}

func (c *cellCache) get(k cellKey) (geo.Polygon, bool) {
	c.mu.RLock()
	p, ok := c.m[k]
	c.mu.RUnlock()
	return p, ok
}

func (c *cellCache) put(k cellKey, p geo.Polygon) {
	c.mu.Lock()
	c.m[k] = p
	c.mu.Unlock()
}

// session returns a per-query view of the engine: the same immutable index
// structure and shared page caches, but with every page read charged to a
// fresh private accumulator. On engines built through the constructors the
// view comes from the scratch pool (pair with releaseSession); engines
// assembled literally fall back to a one-shot view. Idempotent on an
// engine that already is a session.
func (e *Engine) session() *Engine {
	if e.reads != nil {
		return e
	}
	if e.scratches != nil {
		sc := e.scratches.Get().(*queryScratch)
		sc.reset()
		return sc.sess
	}
	acct := &storage.Stats{}
	s := *e
	s.reads = acct
	s.objects = e.objects.Session(acct)
	feats := make([]*index.FeatureGroup, len(e.features))
	for i, f := range e.features {
		feats[i] = f.Session(acct)
	}
	s.features = feats
	return &s
}

// NewEngine creates an engine over plain feature indexes, each becoming a
// single-part feature group. All feature indexes must share the engine's
// vocabulary width; queries carry one keyword set per feature index.
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
	return NewEngineWithGroups(objects, groups, opts)
}

// NewEngineWithGroups creates an engine whose feature sets are forests of
// index parts (used by the sharded engine, where each sub-engine pairs its
// local object index with the globally shared feature groups).
func NewEngineWithGroups(objects *index.ObjectIndex, features []*index.FeatureGroup, opts Options) (*Engine, error) {
	if objects == nil {
		return nil, errors.New("core: nil object index")
	}
	if len(features) == 0 {
		return nil, errors.New("core: at least one feature group required")
	}
	for i, g := range features {
		if g == nil {
			return nil, fmt.Errorf("core: feature group %d is nil", i)
		}
	}
	e := &Engine{objects: objects, features: features, opts: opts.withDefaults()}
	if e.opts.CacheVoronoiCells {
		e.cells = &cellCache{m: make(map[cellKey]geo.Polygon)}
	}
	e.scratches = &sync.Pool{New: func() interface{} { return newQueryScratch(e) }}
	return e, nil
}

// PrecomputeVoronoiCells computes and caches the Voronoi cell of every
// feature object up front (requires Options.CacheVoronoiCells). The
// one-off cost removes the per-query Voronoi construction that dominates
// the NN variant (Figures 13–14).
func (e *Engine) PrecomputeVoronoiCells() error {
	if e.cells == nil {
		return errors.New("core: PrecomputeVoronoiCells requires Options.CacheVoronoiCells")
	}
	for i, g := range e.features {
		for _, part := range g.Parts() {
			if part.Len() == 0 {
				continue
			}
			all, err := part.Tree().All()
			if err != nil {
				return err
			}
			for j := range all {
				cell, err := e.voronoiCell(i, all[j].ItemID, all[j].Rect.Min)
				if err != nil {
					return err
				}
				e.cells.put(cellKey{set: i, id: all[j].ItemID}, cell)
			}
		}
	}
	return nil
}

// Objects returns the engine's data-object index.
func (e *Engine) Objects() *index.ObjectIndex { return e.objects }

// NumObjects returns the number of indexed data objects.
func (e *Engine) NumObjects() int { return e.objects.Len() }

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
	s.Add(e.objects.Stats())
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
	st.IOTime = e.opts.CostModel.IOTime(diff.PhysicalReads)
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
	stats.Trace = root
}

// UpperBound returns a sound upper bound on τ(p) for every location p
// inside rect: per feature set, the best root-level score bound over the
// parts that can contribute, tightened per variant — range parts farther
// than r from rect are skipped entirely (no feature of theirs can be in
// range of any p ∈ rect), influence bounds decay by 2^(−mindist/r), NN
// keeps the raw textual bound (the nearest neighbor can be arbitrarily
// close). The sharded engine uses this per shard MBR to order and prune
// the scatter phase.
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
		prepared := g.Prepare(qk)
		best := 0.0
		for _, part := range g.Parts() {
			if part.Len() == 0 {
				continue
			}
			root, err := part.Tree().RootEntry()
			if err != nil {
				return 0, err
			}
			if !part.EntryRelevant(&root, &prepared) {
				continue
			}
			b := part.EntryBound(&root, &prepared)
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

// UpperBoundAll returns UpperBound evaluated over the MBR of the engine's
// own data objects — the admissible whole-engine bound a cluster node
// reports to the coordinator's scatter probe. An engine whose object tree
// is empty bounds at 0: it cannot contribute any result.
func (e *Engine) UpperBoundAll(q Query) (float64, error) {
	root, err := e.objects.Tree().RootEntry()
	if err != nil {
		return 0, err
	}
	if root.Rect.IsEmpty() {
		return 0, nil
	}
	return e.UpperBound(q, root.Rect)
}

// virtualScore is the score of the virtual feature ∅ (paper Section 6.1).
const virtualScore = 0.0

// negInf is used as the "no threshold" sentinel.
var negInf = math.Inf(-1)
