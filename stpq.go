// Package stpq implements top-k spatio-textual preference queries: ranked
// retrieval of spatial data objects (e.g. hotels) by the quality and
// textual relevance of feature objects (e.g. restaurants, coffeehouses)
// located in their neighborhood.
//
// It is a from-scratch reproduction of "On Processing Top-k Spatio-Textual
// Preference Queries" (Tsatsanifos & Vlachou, EDBT 2015), including the
// SRT-index, the STDS and STPS query processing algorithms, and the range,
// influence and nearest-neighbor score variants.
//
// # Quick start
//
//	db := stpq.New(stpq.Config{})
//	db.AddObjects([]stpq.Object{{ID: 1, X: 0.52, Y: 0.41}})
//	db.AddFeatureSet("restaurants", []stpq.Feature{
//		{ID: 1, X: 0.53, Y: 0.40, Score: 0.8, Keywords: []string{"pizza", "italian"}},
//	})
//	if err := db.Build(); err != nil { ... }
//	res, stats, err := db.TopK(stpq.Query{
//		K:      5,
//		Radius: 0.05,
//		Lambda: 0.5,
//		Keywords: map[string][]string{"restaurants": {"italian", "pizza"}},
//	})
//
// Coordinates are expected in the normalized unit square [0,1]×[0,1] and
// feature scores (ratings) in [0,1], matching the paper's setup.
package stpq

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"stpq/internal/core"
	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/ingest"
	"stpq/internal/kwset"
	"stpq/internal/obs"
	"stpq/internal/shard"
)

// Object is a data object p ∈ O: the entities being ranked.
type Object struct {
	ID   int64
	X, Y float64
}

// Feature is a feature object t ∈ F_i: a facility with a quality score in
// [0,1] and a textual description.
type Feature struct {
	ID       int64
	X, Y     float64
	Score    float64
	Keywords []string
}

// IndexKind selects the feature index structure.
type IndexKind int

const (
	// SRT is the paper's SRT-index: feature objects are clustered by
	// spatial location, score and keyword similarity together (default).
	SRT IndexKind = iota
	// IR2 is the modified IR²-tree baseline: spatial clustering only,
	// augmented with score and keyword summaries.
	IR2
)

// Variant selects the preference score definition.
type Variant int

const (
	// Range scores an object by the best relevant feature within Radius.
	Range Variant = iota
	// Influence drops the hard range: feature scores decay exponentially
	// with distance (halving every Radius).
	Influence
	// NearestNeighbor scores an object by its spatially nearest feature
	// of each set, if that feature is relevant.
	NearestNeighbor
)

// Similarity selects the textual similarity function sim(t, W) of the
// preference score (Definition 1). The paper evaluates Jaccard; the other
// measures plug into the same framework with sound index bounds.
type Similarity int

const (
	// JaccardSim is |t.W ∩ W| / |t.W ∪ W| (default, the paper's choice).
	JaccardSim Similarity = iota
	// DiceSim is 2|t.W ∩ W| / (|t.W| + |W|).
	DiceSim
	// CosineSim is |t.W ∩ W| / √(|t.W|·|W|).
	CosineSim
	// OverlapSim is |t.W ∩ W| / min(|t.W|, |W|).
	OverlapSim
)

// ShardStrategy selects the spatial partitioner of a sharded DB
// (Config.ShardCount > 1).
type ShardStrategy int

const (
	// ShardHilbert cuts the Hilbert curve over the data objects into
	// equal-count runs (default; balanced under skew).
	ShardHilbert ShardStrategy = iota
	// ShardGrid overlays a fixed uniform grid on the object MBR.
	ShardGrid
)

// Algorithm selects the query processing strategy.
type Algorithm int

const (
	// STPS (Spatio-Textual Preference Search) retrieves highly ranked
	// feature combinations first, then objects near them (default; orders
	// of magnitude faster).
	STPS Algorithm = iota
	// STDS (Spatio-Textual Data Scan) scores every data object; the
	// paper's baseline.
	STDS
)

// Config tunes storage and algorithm behaviour.
type Config struct {
	// IndexKind selects SRT (default) or IR2 feature indexing.
	IndexKind IndexKind
	// PageSize is the simulated disk page size in bytes (default 4096).
	PageSize int
	// BufferPages is the per-index LRU buffer pool capacity in pages
	// (default 1024): how many pages the I/O model treats as resident, so
	// what a read counts as a hit or a miss. It does not bound memory; the
	// pages live in memory either way, and a frame holds the disk's image.
	BufferPages int
	// ShardCount > 1 lays the data out in that many spatial cells, each an
	// index part of its own (page files, buffer pool, metrics) under the one
	// query engine. It is a data layout, not a parallelism feature: a query
	// generates its feature combinations once and reads only the cells a
	// combination's region reaches. Results are identical to the unsharded
	// build. 0 or 1 keeps one part.
	ShardCount int
	// ShardStrategy selects the partitioner when ShardCount > 1.
	ShardStrategy ShardStrategy
	// WALDir, when non-empty, attaches a write-ahead log in that
	// directory at Build/Open time, enabling the live write path (Apply,
	// Flush, Checkpoint) with crash recovery: existing log records past
	// the last checkpoint are replayed before the first query. A saved
	// directory carries it in its manifest, so Open re-attaches the log the
	// DB was checkpointed from; a DB built or opened without one attaches
	// later with AttachWAL or follows a leader through ApplyReplicated — the
	// write path needs nothing but the indexes. Requires an unsharded
	// configuration.
	WALDir string
	// WALGroupCommit batches WAL fsyncs: an Apply is acknowledged when
	// its record hits disk, but the sync may be shared with neighbours
	// arriving within this window. 0 syncs every Apply individually.
	WALGroupCommit time.Duration
	// AutoFlushOps bounds the in-memory delta: when this many mutations
	// accumulate, Apply merges them into a new base generation (or, under
	// BackgroundCompaction, seals them into a run). 0 means
	// DefaultAutoFlushOps; negative disables auto-flush (Flush manually).
	AutoFlushOps int
	// BackgroundCompaction moves merge work off the write path: reaching
	// the auto-flush threshold seals the delta into an immutable run
	// (O(feature sets), not O(delta)) and a compactor goroutine folds
	// runs into the base behind watermarks, swapping generations under a
	// short critical section. Requires an attached WAL.
	BackgroundCompaction bool
	// CompactRuns is the sealed-run-count watermark that wakes the
	// compactor (default 4). At four times as many runs Apply merges
	// synchronously instead of sealing another (write backpressure, counted
	// by stpq_ingest_write_stalls_total).
	CompactRuns int
}

// Query is a top-k spatio-textual preference query.
type Query struct {
	// K is the number of objects to return.
	K int
	// Radius is the range constraint r (range variant) or the decay
	// length (influence variant), in normalized coordinates.
	Radius float64
	// Lambda balances feature quality (0) against textual similarity (1);
	// the paper's default is 0.5.
	Lambda float64
	// Keywords maps feature set names to the desired keywords W_i.
	// Feature sets absent from the map match nothing (their contribution
	// is 0).
	Keywords map[string][]string
	// Variant selects the score definition (default Range).
	Variant Variant
	// Algorithm selects the processing strategy (default STPS).
	Algorithm Algorithm
	// Similarity selects the textual similarity measure (default
	// JaccardSim).
	Similarity Similarity
	// RequestID is an optional request-scoped identity. It is stamped onto
	// the query's event record and span tree (never onto results), so one
	// request is attributable across the serving, shard and core layers. It
	// does not affect caching or results.
	RequestID string
	// Trace collects the query's span tree into Stats.Trace. Without it
	// the engine-wide sampling rate and slow-query threshold decide (see
	// DB.SetTraceSampling).
	Trace bool
}

// Result is one ranked data object.
type Result struct {
	ID    int64
	X, Y  float64
	Score float64
}

// Stats reports the cost of one query, following the paper's metric:
// measured CPU time plus I/O time modeled from physical page reads. Trace is
// the query's phase breakdown when tracing is enabled (Query.Trace, a
// sampling hit, or a slow query), nil otherwise.
type Stats = core.Stats

// DB is a queryable collection of data objects and named feature sets.
// Populate it with AddObjects/AddFeatureSet, call Build, then query with
// TopK. After Build, a DB is safe for concurrent use and queries run in
// parallel: each query charges its page reads to a private accumulator, so
// Stats keep the paper's exact per-query attribution even under load. Use
// Snapshot for a pinned view, and Rebuild to swap in fresh indexes without
// disturbing in-flight queries. The index pages are the only copy of the
// data a built DB keeps: what AddObjects/AddFeatureSet hand in is staged
// until the next bulk load and then released.
type DB struct {
	mu    sync.RWMutex
	cfg   Config
	vocab *kwset.Vocabulary
	// objects and sets stage what AddObjects/AddFeatureSet handed in until
	// the next bulk load consumes and releases it; the copy of record of
	// everything built is the base indexes.
	objects  []Object
	setNames []string
	sets     map[string][]Feature
	engine   *core.Engine
	shards   *shard.Engine // the spatial layout engine runs over; nil when unsharded
	metrics  *obs.Registry
	tel      *obs.Telemetry
	qmetrics queryMetricsTable
	kwTables map[string]*keywordTable
	built    bool
	gen      uint64 // build generation: 1 after Build, +1 per Rebuild

	// Live ingest state (see ingest.go, compaction.go). ingestMu
	// serializes writers and orders WAL appends; it is acquired before
	// db.mu and never held during queries, so fsyncs do not block readers.
	ingestMu sync.Mutex
	wal      *ingest.WAL
	delta    *ingest.Delta // nil when no unmerged mutations
	runs     []*ingest.Run // sealed generations awaiting compaction, oldest first
	base     *core.Engine  // the unsharded base engine, nil when sharded
	// Derived from the base indexes by ensureWriteStateLocked: where each
	// base id lives (rtree.Delete is location-keyed), kept current by every
	// merge swap. nil until the first mutation.
	objLoc     map[int64]geo.Point
	featLoc    []map[int64]geo.Point
	walSeq     uint64 // last WAL seq applied in memory
	appliedSeq uint64 // last WAL seq durable in a checkpoint manifest

	// Incremental-merge bookkeeping (see compaction.go). mergeEpoch
	// invalidates a background compaction whose pinned base was replaced
	// mid-flight; the drift counters feed the degradation fallback.
	mergeEpoch uint64
	// forceIncremental skips the tree-quality heuristic so every structurally
	// possible merge is incremental; only in-package tests set it.
	forceIncremental bool
	incrOps          int // net ops merged incrementally since the last bulk load
	incrSplits       int // overflow splits absorbed incrementally since the last bulk load
	baseHeights      []int
	lastMergeSecs    float64
	lastStallSecs    float64

	// Background compactor plumbing; nil unless Config.BackgroundCompaction.
	compactC    chan struct{}
	compactStop chan struct{}
	compactDone chan struct{}
	compactGate func() bool

	ckptMu sync.Mutex // serializes Checkpoint's lock-free disk phase

	// Write-path series, registered with the rest of the write state.
	ingestApplied *obs.Counter
	ingestMerges  *obs.Counter
	partialMerges *obs.Counter
	fullRebuilds  *obs.Counter
	compactions   *obs.Counter
	compactsLost  *obs.Counter
	writeStalls   *obs.Counter
	mergeSeconds  *obs.Histogram
}

// New creates an empty DB.
func New(cfg Config) *DB {
	db := &DB{
		cfg:     cfg,
		vocab:   kwset.NewVocabulary(),
		sets:    make(map[string][]Feature),
		metrics: obs.NewRegistry(),
		tel:     obs.NewTelemetry(),
	}
	return db
}

// AddObjects appends data objects. Must be called before Build (or, for
// incremental growth, before a Rebuild).
func (db *DB) AddObjects(objs []Object) *DB {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.objects = append(db.objects, objs...)
	return db
}

// AddFeatureSet registers a named feature set (e.g. "restaurants").
// Calling it again with the same name appends to that set. Must be called
// before Build (or, for incremental growth, before a Rebuild).
func (db *DB) AddFeatureSet(name string, feats []Feature) *DB {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.setPosLocked(name) < 0 {
		db.setNames = append(db.setNames, name)
	}
	db.sets[name] = append(db.sets[name], feats...)
	return db
}

// FeatureSetNames returns the registered feature set names in insertion
// order — the order Keywords sets are matched against.
func (db *DB) FeatureSetNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, len(db.setNames))
	copy(out, db.setNames)
	return out
}

// Build constructs the indexes. It must be called exactly once, after the
// initial data has been added and before the first query; to re-index
// after adding more data, use Rebuild. The added data is consumed: once the
// indexes hold it the DB keeps no other copy. A Config.WALDir on a DB
// without a write path is refused with ErrIngestUnsupported before anything
// is built, so the staged data stays in place.
func (db *DB) Build() error {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.built {
		return errors.New("stpq: Build called twice")
	}
	if db.cfg.WALDir != "" {
		if err := db.cfg.ingestable(); err != nil {
			return err
		}
	}
	if err := db.buildLocked(nil, nil); err != nil {
		return err
	}
	if db.cfg.WALDir != "" {
		if _, err := db.attachWALLocked(db.cfg.WALDir); err != nil {
			db.built = false
			return err
		}
	}
	return nil
}

// buildLocked bulk-loads a base generation and installs it. The dataset is
// what the caller read back from the engine being replaced (nothing on the
// first Build) plus whatever AddObjects/AddFeatureSet staged since, which is
// validated, interned into db.vocab, consumed and released. Callers hold
// db.mu.
func (db *DB) buildLocked(objs []index.Object, featSets [][]index.Feature) error {
	if len(objs)+len(db.objects) == 0 {
		return errors.New("stpq: no data objects added")
	}
	if len(db.setNames) == 0 {
		return errors.New("stpq: no feature sets added")
	}
	// Pass 1, serial: validate, and intern every keyword — interning assigns
	// the ids, so the vocabulary must be final before any tree is built. The
	// ids are kept, one per keyword (−1 for an empty one), for the goroutines.
	for _, o := range db.objects {
		if err := checkItem(o.X, o.Y, 0); err != nil {
			return fmt.Errorf("stpq: object %d: %w", o.ID, err)
		}
	}
	kwIDs := make([][]int32, len(db.setNames))
	for i, name := range db.setNames {
		n := 0
		for _, f := range db.sets[name] {
			n += len(f.Keywords)
		}
		kwIDs[i] = make([]int32, 0, n)
		for _, f := range db.sets[name] {
			if err := checkItem(f.X, f.Y, f.Score); err != nil {
				return fmt.Errorf("stpq: feature %d of %q: %w", f.ID, name, err)
			}
			for _, w := range f.Keywords {
				kwIDs[i] = append(kwIDs[i], int32(db.vocab.Intern(w)))
			}
		}
	}
	width := db.vocab.Size()
	if width == 0 {
		return errors.New("stpq: feature sets contain no keywords")
	}
	opts := index.Options{
		Kind:        index.Kind(db.cfg.IndexKind),
		VocabWidth:  width,
		PageSize:    db.cfg.PageSize,
		BufferPages: db.cfg.BufferPages,
	}
	for len(featSets) < len(db.setNames) {
		featSets = append(featSets, nil)
	}
	// One goroutine per tree converts its share of the staged data (keyword
	// sets from one arena per set and the kept ids) and bulk-loads it into a
	// disk and pool of its own, so page ids and images do not depend on
	// scheduling. A sharded DB converts the same way, then partitions serially.
	sharded := db.cfg.ShardCount > 1
	var (
		oidx  *index.ObjectIndex
		fidxs = make([]*index.FeatureIndex, len(db.setNames))
		errs  = make([]error, 1+len(db.setNames))
		wg    sync.WaitGroup
	)
	wg.Add(len(errs))
	go func() {
		defer wg.Done()
		objs = slices.Grow(objs, len(db.objects))
		for _, o := range db.objects {
			objs = append(objs, index.Object{ID: o.ID, Location: geo.Point{X: o.X, Y: o.Y}})
		}
		if !sharded {
			oidx, errs[0] = index.BuildObjectIndex(objs, opts)
		}
	}()
	for i, name := range db.setNames {
		go func() {
			defer wg.Done()
			raw, ids := db.sets[name], kwIDs[i]
			feats := slices.Grow(featSets[i], len(raw))
			words := (width + 63) / 64
			arena := make([]uint64, len(raw)*words)
			for j, f := range raw {
				kw := arena[j*words : (j+1)*words : (j+1)*words]
				for _, id := range ids[:len(f.Keywords)] {
					if id >= 0 {
						kw[id/64] |= 1 << (id % 64)
					}
				}
				ids = ids[len(f.Keywords):]
				feats = append(feats, index.Feature{
					ID:       f.ID,
					Location: geo.Point{X: f.X, Y: f.Y},
					Score:    f.Score,
					Keywords: kwset.FromBitsOwned(width, kw),
				})
			}
			featSets[i] = feats
			if !sharded {
				fidxs[i], errs[1+i] = index.BuildFeatureIndex(feats, opts)
			}
		}()
	}
	wg.Wait()
	var (
		eng *core.Engine
		sh  *shard.Engine
		err error
	)
	if sharded {
		sh, err = shard.New(objs, featSets, shard.Options{
			Shards:   db.cfg.ShardCount,
			Strategy: shard.Strategy(db.cfg.ShardStrategy),
			Index:    opts,
			Core:     coreOptions,
		})
		if err != nil {
			return fmt.Errorf("stpq: building sharded engine: %w", err)
		}
		eng = sh.Core()
	} else {
		// Reported in the order a serial build meets them.
		if errs[0] != nil {
			return fmt.Errorf("stpq: building object index: %w", errs[0])
		}
		for i, name := range db.setNames {
			if errs[1+i] != nil {
				return fmt.Errorf("stpq: building feature index %q: %w", name, errs[1+i])
			}
		}
		if eng, err = core.NewEngine(oidx, fidxs, coreOptions); err != nil {
			return err
		}
	}
	db.objects = nil
	clear(db.sets)
	// A bulk load swallows every pending layer and resets the incremental-
	// merge drift accounting: the trees are freshly packed.
	db.delta, db.runs = nil, nil
	db.incrOps, db.incrSplits = 0, 0
	db.installBaseLocked(eng, sh)
	db.publishLocked(eng)
	// What the write path derived from the replaced base is stale. A DB that
	// takes writes re-derives it now, while the dataset is at hand as
	// slices; any other waits for its first mutation and walks the leaves.
	wasWritable := db.objLoc != nil
	db.objLoc, db.featLoc, db.baseHeights = nil, nil, nil
	if db.base != nil && (wasWritable || db.cfg.WALDir != "") {
		return db.ensureWriteStateLocked(objs, featSets)
	}
	return nil
}

// installBaseLocked makes eng (the core of sh on a sharded DB) the base
// generation every later merge starts from: its buffer pools report to the
// registry, and a background compaction pinned to the replaced base is
// invalidated. Callers publish it, or a view over it, next.
func (db *DB) installBaseLocked(eng *core.Engine, sh *shard.Engine) {
	if sh != nil {
		sh.AttachMetrics(db.metrics)
		db.base = nil
	} else {
		soleObjects(eng).AttachMetrics(db.metrics, "objects")
		db.base = eng
	}
	// Feature pool metrics attach to the groups (sharded groups add a
	// _partNN suffix per cell).
	for i, name := range db.setNames {
		eng.FeatureGroups()[i].AttachMetrics(db.metrics, poolLabel(name))
	}
	db.shards = sh
	db.mergeEpoch++
	db.built = true
}

// publishLocked makes eng what new snapshots query. The generation bump
// invalidates serve-layer result caches.
func (db *DB) publishLocked(eng *core.Engine) {
	db.engine = eng
	db.gen++
	db.kwTables = nil // stale after a swap; lazily rebuilt by KeywordStats
}

// readBack returns the dataset an engine shows — every object part and
// every feature group, through their tombstone filters — as bulk-load
// input. The engine is the copy of record: a full merge reads the one it is
// about to replace, and the write state of an opened DB is derived from it.
// Every keyword set owns its words (Tree.All).
func readBack(eng *core.Engine) ([]index.Object, [][]index.Feature, error) {
	objs := make([]index.Object, 0, eng.NumObjects())
	for _, part := range eng.ObjectParts() {
		entries, err := part.Tree().All()
		if err != nil {
			return nil, nil, fmt.Errorf("stpq: reading objects back: %w", err)
		}
		for _, e := range entries {
			objs = append(objs, index.Object{ID: e.ItemID, Location: e.Point()})
		}
	}
	featSets := make([][]index.Feature, len(eng.FeatureGroups()))
	for i, g := range eng.FeatureGroups() {
		entries, err := g.All()
		if err != nil {
			return nil, nil, fmt.Errorf("stpq: reading feature set %d back: %w", i, err)
		}
		feats := make([]index.Feature, len(entries))
		for j, e := range entries {
			feats[j] = index.Feature{ID: e.ItemID, Location: e.Point(), Score: e.Score, Keywords: e.Keywords}
		}
		featSets[i] = feats
	}
	return objs, featSets, nil
}

// soleObjects returns the object index of an unsharded, fully merged
// engine, which holds exactly one object part.
func soleObjects(eng *core.Engine) *index.ObjectIndex { return eng.ObjectParts()[0] }

// coreOptions are the engine options every DB runs with: batched STDS.
var coreOptions = core.Options{BatchSTDS: true}

// poolLabel sanitizes a feature-set name into a Prometheus label value.
func poolLabel(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '_', r == '-', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "set"
	}
	return b.String()
}

// TopK runs the query and returns the k best objects with execution
// statistics. Safe for concurrent use after Build; queries run in
// parallel against a snapshot of the current indexes.
func (db *DB) TopK(q Query) ([]Result, Stats, error) {
	snap, err := db.Snapshot()
	if err != nil {
		return nil, Stats{}, err
	}
	return snap.TopK(q)
}

// Score computes the exact spatio-textual preference score of an arbitrary
// location under the query, by brute force. Intended for debugging and
// verification, not for production use.
func (db *DB) Score(q Query, x, y float64) (float64, error) {
	snap, err := db.Snapshot()
	if err != nil {
		return 0, err
	}
	return snap.Score(q, x, y)
}

// KeywordStat describes one keyword of a feature set.
type KeywordStat struct {
	Keyword string
	// Count is the number of features of the set described by the
	// keyword.
	Count int
	// TopScore is the best non-spatial score among those features.
	TopScore float64
}

// keywordTable is one feature set's keyword statistics, computed in one
// pass over the index leaves and cached until the next generation.
type keywordTable struct {
	stats []KeywordStat // descending Count, ties by Keyword
	sets  []kwset.Set   // one per feature, for Selectivity
}

// keywordTableLocked returns (building on first use) the named feature
// set's table from the index leaves. Callers hold db.mu.
func (db *DB) keywordTableLocked(featureSet string) (*keywordTable, error) {
	if !db.built {
		return nil, fmt.Errorf("%w: KeywordStats before Build", ErrNotBuilt)
	}
	if t, ok := db.kwTables[featureSet]; ok {
		return t, nil
	}
	pos := -1
	for i, name := range db.setNames {
		if name == featureSet {
			pos = i
			break
		}
	}
	if pos < 0 {
		return nil, fmt.Errorf("%w %q", ErrUnknownFeatureSet, featureSet)
	}
	entries, err := db.engine.FeatureGroups()[pos].All()
	if err != nil {
		return nil, err
	}
	byID := make([]KeywordStat, db.vocab.Size())
	t := &keywordTable{sets: make([]kwset.Set, len(entries))}
	for i, e := range entries {
		t.sets[i] = e.Keywords
		e.Keywords.ForEach(func(id int) {
			if id >= len(byID) {
				return
			}
			byID[id].Count++
			if e.Score > byID[id].TopScore {
				byID[id].TopScore = e.Score
			}
		})
	}
	for id := range byID {
		if byID[id].Count > 0 {
			byID[id].Keyword = db.vocab.Word(id)
			t.stats = append(t.stats, byID[id])
		}
	}
	sort.Slice(t.stats, func(i, j int) bool {
		if t.stats[i].Count != t.stats[j].Count {
			return t.stats[i].Count > t.stats[j].Count
		}
		return t.stats[i].Keyword < t.stats[j].Keyword
	})
	if db.kwTables == nil {
		db.kwTables = make(map[string]*keywordTable)
	}
	db.kwTables[featureSet] = t
	return t, nil
}

// KeywordStats returns, for the named feature set, the per-keyword
// document frequencies and best scores, ordered by descending frequency.
// It helps users gauge the selectivity of candidate query keywords.
func (db *DB) KeywordStats(featureSet string) ([]KeywordStat, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.keywordTableLocked(featureSet)
	if err != nil {
		return nil, err
	}
	return append([]KeywordStat(nil), t.stats...), nil
}

// Selectivity returns the fraction of the named feature set that is
// textually relevant to the given keywords — a direct predictor of query
// cost.
func (db *DB) Selectivity(featureSet string, keywords []string) (float64, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, err := db.keywordTableLocked(featureSet)
	if err != nil || len(t.sets) == 0 {
		return 0, err
	}
	q := db.vocab.LookupSet(keywords...)
	relevant := 0
	for _, set := range t.sets {
		if set.Intersects(q) {
			relevant++
		}
	}
	return float64(relevant) / float64(len(t.sets)), nil
}
