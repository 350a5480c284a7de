package core

import (
	"sync"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/rtree"
	"stpq/internal/storage"
	"stpq/internal/voronoi"
)

// queryScratch is the per-query reusable state of one engine session:
// the private read accumulator, the prebuilt session view bound to it and
// what depends on the engine's parts, and, while a query holds the session,
// every transient buffer the STDS/STPS kernels need — candidate heaps,
// top-k backing, combination-stream state, dedup maps (queryBuffers).
// Scratches are recycled through the root engine's sync.Pool, and the
// buffers through a package pool (queryBuffersPool) that outlives engines:
// every write publishes a new engine, and the first queries on it find
// buffers already grown. So a steady stream of queries reaches steady-state
// zero heap growth: after warm-up, repeated queries allocate only what
// genuinely varies per query (results slices, and the copy of each Voronoi
// cell an NN query adds to the engine's store — none once the store holds
// the cells its queries touch).
//
// Single-user invariants (all hold because a query runs on one goroutine
// and the kernels never nest):
//   - stds is the one lensed feature stream of an STDS query: computeScore
//     and batchRangeScores re-init it per object (or batch) and feature
//     set, and are done with it before the next init, which discards
//     the queued candidates;
//   - bound and prune are used by one topKInfluence search over the
//     object trees at a time;
//   - dist is computeNNScore's alone: one groupAscendDistance walk per
//     object and feature set, over before the next begins;
//   - cell belongs to the NN variant of STPS: voronoiCell is done with the
//     builder and the sweep heap when it returns the cell's copy for the
//     store, which happens when a feature is pulled, never inside
//     comboRegion, whose region buffers are consumed before the next
//     combination;
//   - topk/inf back the single accumulator of the query;
//   - the combination-stream buffers belong to the single stream a
//     STPS query drives.
type queryScratch struct {
	acct storage.Stats
	// sess is the session view of the root engine: same immutable index
	// structure, page reads charged to acct. The view itself never changes
	// between queries, so it is built once per scratch and reused; only
	// acct is re-zeroed.
	sess *Engine
	// probed[i] records that the query descended into object part i.
	probed []bool
	// layers[set][i] is part i's location layer as the session sees it,
	// nil for an empty part: looked up at the set's first cell walk and
	// kept, since a session's parts never change.
	layers [][]*rtree.Tree

	// The buffers of the query holding the session, nil between queries.
	*queryBuffers
}

// queryBuffers are the working buffers of one query, whatever engine it
// runs on: they hold no page and, between queries, nothing of the engine
// that used them last (release).
type queryBuffers struct {
	stds  featureStream
	bound boundHeap
	prune influencePrune
	// dist is groupAscendDistance's heap (on −MINDIST), distRests its side
	// slice — the score and keyword set of each leaf queued in it — and
	// distArena those sets' words, copied out of their pages.
	dist      boundHeap
	distRests []leafRest
	distArena []uint64
	topk      topkAccumulator
	inf       influenceTopK
	seen      map[int64]bool

	// Batched STDS: one batchObj per object-tree leaf entry.
	batch    []batchObj
	batchPtr []*batchObj

	// Combination stream (one per STPS query): the struct keeps all its
	// growable state — per-set streams and their heaps, retrieved
	// prefixes, the combination heap, the generator's pair grids,
	// the index-vector arena — and reinit() recycles it in place.
	cs combinationStream

	// NN variant: what building a cell and intersecting cells works in
	// (the cells themselves live in the engine's store).
	cell cellWork
}

// cellWork is the working state of the NN variant of STPS: the builder and
// sweep heap of the cell under construction (voronoiCell), and the two
// buffers a combination's region is cut between (comboRegion).
type cellWork struct {
	builder       voronoi.CellBuilder
	sweep         []sweepRef
	region, spare []geo.Point
}

// queryBuffersPool keeps the query buffers between queries, across
// engines.
var queryBuffersPool = sync.Pool{New: func() any { return &queryBuffers{seen: make(map[int64]bool)} }}

// newQueryScratch builds a scratch (and its session view) for the root
// engine. Called by the pool on a cache miss; steady state reuses existing
// scratches.
func newQueryScratch(root *Engine) *queryScratch {
	sc := &queryScratch{probed: make([]bool, len(root.objects))}
	s := *root
	s.reads = &sc.acct
	s.scratches = nil // sessions never pool themselves
	s.scratch = sc
	s.objects = make([]*index.ObjectIndex, len(root.objects))
	for i, part := range root.objects {
		s.objects[i] = part.Session(&sc.acct)
	}
	feats := make([]*index.FeatureGroup, len(root.features))
	for i, f := range root.features {
		feats[i] = f.Session(&sc.acct)
	}
	s.features = feats
	sc.sess = &s
	return sc
}

// reset prepares the scratch for a new query and gives it buffers.
// Buffers are truncated (not freed) at their acquisition points; only the
// read accumulator and the part marks must be zeroed before the session is
// handed out.
func (sc *queryScratch) reset() {
	sc.acct = storage.Stats{}
	clear(sc.probed)
	sc.queryBuffers = queryBuffersPool.Get().(*queryBuffers)
}

// markProbed records that the running query descends into object part pi.
// A no-op outside a session.
func (e *Engine) markProbed(pi int) {
	if sc := e.scratch; sc != nil {
		sc.probed[pi] = true
	}
}

// countShards files the part marks of a finished query into its stats: of
// the parts that are cells of a spatial partition, how many the query
// descended into and how many it never touched.
func (e *Engine) countShards(stats *Stats) {
	for _, probed := range e.scratch.probed[:e.shards] {
		if probed {
			stats.ShardFanout++
		} else {
			stats.ShardPruned++
		}
	}
}

// release hands the scratch's buffers back to queryBuffersPool before the
// scratch goes back to its engine's pool.
func (sc *queryScratch) release() {
	sc.queryBuffers.release()
	queryBuffersPool.Put(sc.queryBuffers)
	sc.queryBuffers = nil
}

// release empties the distance heap's side slice and the combination heap,
// and drops what the streams point at of the engine that used them. A
// descent usually stops with candidates still queued, and each leaf queued
// in groupAscendDistance's heap holds, in its side slot, a keyword set;
// zeroing the slots here means idle buffers pin nothing of the query they
// served. The candidates themselves hold no pointer, and everything else
// the buffers keep — retrieved feature prefixes, the combination refs
// buffer, the pair grids and the index vector arena, the partner queues,
// the distance heap's keyword arena (uint64s copied out of the page
// images), batch objects, the influence search's members and K best
// prices — is plain values without pointers.
func (b *queryBuffers) release() {
	b.distRests = resetHeap(b.distRests)
	b.cs.heap.reset()
	b.cs.q, b.cs.e, b.cs.stats, b.cs.tr = nil, nil, nil, nil
	b.stds.release()
	for _, s := range b.cs.streams {
		s.release()
	}
}

// scratchBoundHeap returns the reusable best-first candidate heap, empty.
// Falls back to a fresh heap on engines without scratch state.
func (e *Engine) scratchBoundHeap() *boundHeap {
	if sc := e.scratch; sc != nil {
		sc.bound = sc.bound[:0]
		return &sc.bound
	}
	return &boundHeap{}
}

// scratchInfluencePrune returns the reusable pre-test state of the
// influence object search.
func (e *Engine) scratchInfluencePrune() *influencePrune {
	if sc := e.scratch; sc != nil {
		return &sc.prune
	}
	return &influencePrune{}
}

// scratchDistHeap returns the reusable distance-ascent heap, its side
// slice and keyword arena, all empty.
func (e *Engine) scratchDistHeap() (*boundHeap, *[]leafRest, *[]uint64) {
	if sc := e.scratch; sc != nil {
		sc.dist = sc.dist[:0]
		sc.distRests = resetHeap(sc.distRests)
		sc.distArena = sc.distArena[:0]
		return &sc.dist, &sc.distRests, &sc.distArena
	}
	return &boundHeap{}, &[]leafRest{}, &[]uint64{}
}

// newTopk returns the query's top-k accumulator, reusing the scratch
// backing when available.
func (e *Engine) newTopk(k int) *topkAccumulator {
	if sc := e.scratch; sc != nil {
		sc.topk.k = k
		sc.topk.heap = sc.topk.heap[:0]
		return &sc.topk
	}
	return newTopkAccumulator(k)
}

// newInfluenceTopK returns the influence variant's accumulator, reusing
// the scratch map and slice when available.
func (e *Engine) newInfluenceTopK(k int) *influenceTopK {
	if sc := e.scratch; sc != nil {
		sc.inf.k = k
		if sc.inf.best == nil {
			sc.inf.best = make(map[int64]float64)
		} else {
			clear(sc.inf.best)
		}
		sc.inf.top = sc.inf.top[:0]
		return &sc.inf
	}
	return newInfluenceTopK(k)
}

// scratchSeen returns the reusable object-dedup map, cleared.
func (e *Engine) scratchSeen() map[int64]bool {
	if sc := e.scratch; sc != nil {
		clear(sc.seen)
		return sc.seen
	}
	return make(map[int64]bool)
}

// scratchBatch returns n zeroed *batchObj slots backed by the scratch
// arrays (batched STDS processes one leaf at a time, so slots are reused
// leaf after leaf).
func (e *Engine) scratchBatch(n int) []*batchObj {
	sc := e.scratch
	if sc == nil {
		objs := make([]*batchObj, n)
		store := make([]batchObj, n)
		for i := range objs {
			objs[i] = &store[i]
		}
		return objs
	}
	if cap(sc.batch) < n {
		sc.batch = make([]batchObj, n)
		sc.batchPtr = make([]*batchObj, 0, n)
	}
	store := sc.batch[:n]
	objs := sc.batchPtr[:0]
	for i := range store {
		store[i] = batchObj{}
		objs = append(objs, &store[i])
	}
	sc.batchPtr = objs
	return objs
}

// scratchCellWork returns the NN variant's reusable cell-building state.
func (e *Engine) scratchCellWork() *cellWork {
	if sc := e.scratch; sc != nil {
		return &sc.cell
	}
	return &cellWork{}
}

// releaseSession returns a session acquired through session() to the root
// engine's scratch pool. It is a no-op when s is the engine itself
// (session() was idempotent). After release the session must not be used:
// results and stats must already be copied out.
func (e *Engine) releaseSession(s *Engine) {
	if s == e {
		return
	}
	s.scratch.release()
	e.scratches.Put(s.scratch)
}
