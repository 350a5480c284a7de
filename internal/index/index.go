// Package index builds the two feature-object indexes compared in the
// paper — the SRT-index (Section 4) and the modified IR²-tree (Section 8)
// — plus the plain R-tree over data objects, all on top of the paged
// R-tree of internal/rtree.
//
// Both feature indexes keep, in every entry, the augmentation of Section
// 4.1: the maximum non-spatial score e.s of the subtree and the keyword
// summary e.W of all enclosed feature objects, yielding the query-time
// upper bound
//
//	ŝ(e) = (1−λ)·e.s + λ·|e.W ∩ W| / |W|  ≥  s(t) for every t below e.
//
// The feature stream prices an internal slot by its price points
// (rtree.PageView.NextInner, BoundLevels): the best (1−λ)·m + λ·sim-bound
// over points (m, c, n), where no feature below holding more than c query
// keywords scores above m and a feature holding c of them holds at least
// n keywords. Two deviations make the points tighter than ŝ(e), and both
// only tighten the bound. Every internal entry carries a signature of the
// keyword pairs that occur together in one feature below it, and of the
// keywords that are some feature's only one (rtree.PairSig), which caps c
// at the most query keywords those pairs allow one feature to hold and
// raises n to two where none of them stands alone below. And an entry
// keeps, in place of e.s and e.W, the best score of a feature below that
// holds each keyword, rounded up to a 4-bit level, so that a feature
// holding c query keywords is priced at the least of their levels. Above
// rtree.MaxLevelWidth keywords, keyword k shares the level of bucket
// k mod rtree.MaxLevelWidth with the other keywords of its bucket, which
// can only raise its price. rtree derives the layout from the width; a
// dump in an older layout is rebuilt when it is opened
// (OpenFeatureIndex).
//
// The paper's SRT stores the Hilbert value H(e.W) in a node and updates it
// on insert by decode → OR → encode; our nodes keep e.W as the keywords of
// their score table, so the rule is e.W ∪= t.W, each of t's keywords
// raised to t's level, applied by refolding every node a build, an
// Insert or a Delete writes.
//
// They differ only in how leaf entries are clustered at build time:
//
//   - SRT packs features in 4-D Hilbert order of {x, y, t.s, k}, where
//     k = hilbert.KeywordMinHash(t.W) stands in for the paper's H(t.W), so
//     nodes group features that are close in space, in quality AND in
//     textual description — which tightens ŝ(e).
//   - IR² packs features in 2-D Hilbert order of {x, y} only (the
//     spatial-only clustering of a classic IR²-tree whose nodes we augment
//     with the maximum enclosed score, per Section 8).
package index

import (
	"fmt"
	"math"

	"stpq/internal/geo"
	"stpq/internal/hilbert"
	"stpq/internal/kwset"
	"stpq/internal/obs"
	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// Kind selects the feature index construction.
type Kind int

const (
	// SRT is the paper's SRT-index (4-D Hilbert clustering).
	SRT Kind = iota
	// IR2 is the modified IR²-tree baseline (spatial clustering).
	IR2
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case SRT:
		return "SRT"
	case IR2:
		return "IR2"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Feature is one feature object t ∈ F_i: a location, a non-spatial score
// t.s ∈ [0,1] and a keyword set t.W.
type Feature struct {
	ID       int64
	Location geo.Point
	Score    float64
	Keywords kwset.Set
}

// Object is one data object p ∈ O.
type Object struct {
	ID       int64
	Location geo.Point
}

// Options configures index construction.
type Options struct {
	// Kind selects SRT or IR2 clustering (feature indexes only).
	Kind Kind
	// VocabWidth is the number of distinct indexed keywords w.
	VocabWidth int
	// PageSize is the disk page size (default storage.DefaultPageSize).
	PageSize int
	// BufferPages is the LRU buffer-pool capacity in pages.
	BufferPages int
	// Disk optionally supplies a backing store (default in-memory).
	Disk storage.Disk
}

// withDefaults normalizes zero-valued options.
func (o Options) withDefaults() Options {
	if o.PageSize <= 0 {
		o.PageSize = storage.DefaultPageSize
	}
	return o
}

// curveBits is the per-dimension resolution of the bulk-load Hilbert sort.
const curveBits = 16

// FeatureIndex is a spatio-textual index over one feature set F_i. The
// query algorithms traverse it through Tree and score, bound and prune its
// entries with the QueryKeywords methods.
type FeatureIndex struct {
	tree *rtree.Tree
	kind Kind
	opts Options
	// hidden is how many indexed features a WithExclude view hides, and
	// dead which ones.
	hidden int
	dead   map[int64]struct{}
	// acct is the read accumulator of a Session view, nil otherwise.
	acct *storage.Stats
	// loc is the part's location layer, shared by every view of it.
	loc *locLayer
}

// newFeatureIndex wraps a canonical tree, with an unbuilt location layer.
func newFeatureIndex(tree *rtree.Tree, kind Kind, opts Options) *FeatureIndex {
	return &FeatureIndex{tree: tree, kind: kind, opts: opts, loc: newLocLayer(tree)}
}

// BuildFeatureIndex bulk-loads the features into a fresh index of the
// given kind.
func BuildFeatureIndex(features []Feature, opts Options) (*FeatureIndex, error) {
	opts = opts.withDefaults()
	if opts.VocabWidth <= 0 {
		return nil, fmt.Errorf("index: VocabWidth must be positive")
	}
	tree, err := rtree.New(rtree.Config{
		PageSize:     opts.PageSize,
		KeywordWidth: opts.VocabWidth,
		WithScore:    true,
		BufferPages:  opts.BufferPages,
		Disk:         opts.Disk,
	})
	if err != nil {
		return nil, err
	}
	idx := newFeatureIndex(tree, opts.Kind, opts)
	items := make([]rtree.Item, len(features))
	for i, f := range features {
		items[i] = rtree.Item{ID: f.ID, Location: f.Location, Score: f.Score, Keywords: f.Keywords}
	}
	if err := tree.BulkLoad(items, idx.sortKey()); err != nil {
		return nil, err
	}
	return idx, nil
}

// sortKey returns the bulk-load ordering for the index kind.
func (x *FeatureIndex) sortKey() rtree.SortKey {
	switch x.kind {
	case SRT:
		return func(it rtree.Item) uint64 {
			return hilbert.Encode4D(
				geo.Quantize(it.Location.X, curveBits),
				geo.Quantize(it.Location.Y, curveBits),
				geo.Quantize(it.Score, curveBits),
				hilbert.KeywordMinHash(it.Keywords, curveBits),
				curveBits,
			)
		}
	default: // IR2
		return spatialKey
	}
}

// spatialKey is the 2-D Hilbert order of the item locations: the IR²-tree's,
// the object tree's and the location layer's bulk-load key.
func spatialKey(it rtree.Item) uint64 {
	return hilbert.Encode2D(geo.Quantize(it.Location.X, curveBits), geo.Quantize(it.Location.Y, curveBits), curveBits)
}

// Insert adds one feature incrementally. Every node along the insertion
// path is refolded from its entries, so its score bound and keyword
// summary take in the feature's: Section 4.2's decode → OR → encode of
// H(e.W) is e.W ∪= t.W on the bitmaps our nodes store. It refuses a part
// whose location layer exists (ErrLocationsBuilt).
func (x *FeatureIndex) Insert(f Feature) error {
	if err := x.loc.mutable(); err != nil {
		return err
	}
	return x.tree.Insert(rtree.Item{ID: f.ID, Location: f.Location, Score: f.Score, Keywords: f.Keywords})
}

// Delete removes the feature with the given id at the given location,
// reporting whether it was found. Like Insert, it refuses a part whose
// location layer exists.
func (x *FeatureIndex) Delete(id int64, loc geo.Point) (bool, error) {
	if err := x.loc.mutable(); err != nil {
		return false, err
	}
	return x.tree.Delete(id, loc)
}

// BeginMerge returns a mutable copy-on-write clone of the index for an
// incremental merge. The clone reads the same pages through a
// storage.CowDisk, so Insert/Delete on it rewrite only the touched
// subtree pages in a private overlay while the original index — and any
// snapshot pinned to it — keeps reading the original bytes. The clone is
// a fully independent index once returned, with no location layer (the
// original's would not follow the clone's writes); publishing it and
// dropping the original completes the merge.
func (x *FeatureIndex) BeginMerge() (*FeatureIndex, error) {
	cfg := x.tree.Config()
	cfg.Disk = storage.NewCowDisk(cfg.Disk)
	tree, err := rtree.Open(cfg, x.tree.Meta())
	if err != nil {
		return nil, err
	}
	opts := x.opts
	opts.Disk = cfg.Disk
	c := newFeatureIndex(tree, x.kind, opts)
	c.hidden = x.hidden
	return c, nil
}

// WithExclude returns a read view of the index that hides the listed
// feature ids — the tombstone filter of live ingest. hidden is how many of
// them the index actually holds — the caller tracks what it indexed — so
// that Len keeps counting live features only. The exclusion survives
// Session (the per-query view copies the tree handle, exclusion set
// included).
func (x *FeatureIndex) WithExclude(dead map[int64]struct{}, hidden int) *FeatureIndex {
	if len(dead) == 0 {
		return x
	}
	c := *x
	c.tree = x.tree.WithExclude(dead)
	c.hidden, c.dead = hidden, dead
	return &c
}

// Tree exposes the underlying paged R-tree for traversal.
func (x *FeatureIndex) Tree() *rtree.Tree { return x.tree }

// Kind returns the index construction kind.
func (x *FeatureIndex) Kind() Kind { return x.kind }

// All returns every indexed feature the index shows, with its keyword set.
// It backs the brute-force correctness oracle.
func (x *FeatureIndex) All() ([]rtree.Entry, error) { return x.tree.All() }

// Len returns the number of indexed features the index shows.
func (x *FeatureIndex) Len() int { return x.tree.Len() - x.hidden }

// Session returns a read view of the index whose page accesses are
// additionally charged to acct — the per-query accounting handle that
// keeps Stats attribution exact when queries run concurrently. The view
// shares the tree structure and page cache with the original index and
// must not be mutated.
func (x *FeatureIndex) Session(acct *storage.Stats) *FeatureIndex {
	c := *x
	c.tree = x.tree.WithPool(x.tree.Pool().Session(acct))
	c.acct = acct
	return &c
}

// Stats returns the accumulated I/O counters of the index's buffer pool
// and, once built, its location layer's.
func (x *FeatureIndex) Stats() storage.Stats {
	s := x.tree.Pool().Stats()
	s.Add(x.loc.stats())
	return s
}

// ResetStats zeroes the I/O counters, the location layer's included.
func (x *FeatureIndex) ResetStats() {
	x.tree.Pool().ResetStats()
	if t := x.loc.tree.Load(); t != nil {
		t.Pool().ResetStats()
	}
}

// AttachMetrics aggregates the index's buffer-pool counters, and its
// location layer's once built, into the registry under the given pool
// name.
func (x *FeatureIndex) AttachMetrics(r *obs.Registry, pool string) {
	m := storage.NewPoolMetrics(r, pool)
	x.tree.Pool().SetMetrics(m)
	x.loc.metrics.Store(m)
	if t := x.loc.tree.Load(); t != nil {
		t.Pool().SetMetrics(m)
	}
}

// QueryKeywords is the per-feature-set textual part of a query: the
// keyword set W_i, the smoothing parameter λ shared by all sets, and the
// similarity measure (zero value = Jaccard, the paper's default).
type QueryKeywords struct {
	Set    kwset.Set
	Lambda float64
	Sim    Similarity
}

// Score returns the preference score s(t) of a leaf entry under Definition
// 1: s(t) = (1−λ)·t.s + λ·sim(t.W, W).
func Score(e rtree.Entry, q QueryKeywords) float64 { return q.Score(&e) }

// Bound returns the upper bound ŝ(e) of Section 4.2 for an entry: the
// exact score for leaf entries, and (1−λ)·e.s + λ·NodeBoundCounts(|e.W∩W|,
// |W|) for internal entries (|e.W∩W|/|W| under Jaccard). For every feature
// t under e, Bound(e) ≥ s(t).
func Bound(e rtree.Entry, q QueryKeywords) float64 { return q.Bound(&e) }

// Score is the package-level Score read in place.
func (q *QueryKeywords) Score(e *rtree.Entry) float64 {
	return q.BoundCounts(e.Score, true, e.Keywords.IntersectCount(q.Set), e.Keywords.Count(), q.Set.Count())
}

// Bound is the package-level Bound read in place. For a leaf it is Score,
// bit for bit.
func (q *QueryKeywords) Bound(e *rtree.Entry) float64 {
	return q.BoundCounts(e.Score, e.Leaf, e.Keywords.IntersectCount(q.Set), e.Keywords.Count(), q.Set.Count())
}

// BoundLevels is the price of an internal slot from its price points
// (rtree.PageView.NextInner): the best of (1−λ)·m + λ·Sim.NodeBound(c, n,
// wc) over its points (m, c, n), |W| = wc. A feature below holding c query
// keywords and n keywords or more, and scoring at most m, scores at most
// that: its similarity is at most the node bound at c and n.
func (q *QueryKeywords) BoundLevels(front []rtree.LevelCount, wc int) float64 {
	b := math.Inf(-1)
	for _, p := range front {
		b = max(b, (1-q.Lambda)*p.Score+q.Lambda*q.Sim.NodeBound(p.Count, p.Least, wc))
	}
	return b
}

// BoundCounts is Bound from counts, the one formula Score and Bound share:
// the bound of an entry whose score is s, whose keywords number count and
// share inter with W, and |W| = wc. The feature stream prices a page slot
// with it straight from the slot's image (rtree.PageView.NextCounted).
func (q *QueryKeywords) BoundCounts(s float64, leaf bool, inter, count, wc int) float64 {
	var sim float64
	if leaf {
		sim = q.Sim.SimCounts(inter, count, wc)
	} else {
		sim = q.Sim.NodeBoundCounts(inter, wc)
	}
	return (1-q.Lambda)*s + q.Lambda*sim
}

// Relevant reports whether the entry can contain a feature with positive
// textual similarity to W — the sim(t, W) > 0 pruning test.
func (q *QueryKeywords) Relevant(e *rtree.Entry) bool {
	return e.Keywords.Intersects(q.Set)
}

// ObjectIndex is the plain R-tree over the data objects O.
type ObjectIndex struct {
	tree *rtree.Tree
	// hidden is how many indexed objects a WithExclude view hides.
	hidden int
}

// BuildObjectIndex bulk-loads the data objects in 2-D Hilbert order.
func BuildObjectIndex(objects []Object, opts Options) (*ObjectIndex, error) {
	opts = opts.withDefaults()
	tree, err := rtree.New(rtree.Config{
		PageSize:    opts.PageSize,
		BufferPages: opts.BufferPages,
		Disk:        opts.Disk,
	})
	if err != nil {
		return nil, err
	}
	items := make([]rtree.Item, len(objects))
	for i, o := range objects {
		items[i] = rtree.Item{ID: o.ID, Location: o.Location}
	}
	if err := tree.BulkLoad(items, spatialKey); err != nil {
		return nil, err
	}
	return &ObjectIndex{tree: tree}, nil
}

// Insert adds one data object incrementally.
func (x *ObjectIndex) Insert(o Object) error {
	return x.tree.Insert(rtree.Item{ID: o.ID, Location: o.Location})
}

// Delete removes the object with the given id at the given location,
// reporting whether it was found.
func (x *ObjectIndex) Delete(id int64, loc geo.Point) (bool, error) {
	return x.tree.Delete(id, loc)
}

// BeginMerge returns a mutable copy-on-write clone of the object index
// (see FeatureIndex.BeginMerge).
func (x *ObjectIndex) BeginMerge() (*ObjectIndex, error) {
	cfg := x.tree.Config()
	cfg.Disk = storage.NewCowDisk(cfg.Disk)
	tree, err := rtree.Open(cfg, x.tree.Meta())
	if err != nil {
		return nil, err
	}
	return &ObjectIndex{tree: tree}, nil
}

// WithExclude returns a read view of the index that hides the listed
// object ids (see FeatureIndex.WithExclude). hidden is how many of them the
// index actually holds — the caller tracks what it indexed — so that Len
// keeps counting live objects only.
func (x *ObjectIndex) WithExclude(dead map[int64]struct{}, hidden int) *ObjectIndex {
	if len(dead) == 0 {
		return x
	}
	return &ObjectIndex{tree: x.tree.WithExclude(dead), hidden: hidden}
}

// Tree exposes the underlying paged R-tree.
func (x *ObjectIndex) Tree() *rtree.Tree { return x.tree }

// Len returns the number of indexed objects the index shows.
func (x *ObjectIndex) Len() int { return x.tree.Len() - x.hidden }

// Session returns a read view of the index whose page accesses are
// additionally charged to acct (see FeatureIndex.Session).
func (x *ObjectIndex) Session(acct *storage.Stats) *ObjectIndex {
	return &ObjectIndex{tree: x.tree.WithPool(x.tree.Pool().Session(acct)), hidden: x.hidden}
}

// Stats returns the accumulated I/O counters.
func (x *ObjectIndex) Stats() storage.Stats { return x.tree.Pool().Stats() }

// ResetStats zeroes the I/O counters.
func (x *ObjectIndex) ResetStats() { x.tree.Pool().ResetStats() }

// AttachMetrics aggregates the index's buffer-pool counters into the
// registry under the given pool name.
func (x *ObjectIndex) AttachMetrics(r *obs.Registry, pool string) {
	x.tree.Pool().SetMetrics(storage.NewPoolMetrics(r, pool))
}
