package core

import (
	"math"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// featureRef is one element of the per-set stream D_i: either a concrete
// feature object — its id, location and preference score s(t), all the
// combination stages read of it — or the virtual feature ∅ emitted after
// the set is exhausted (paper Section 6.1): dist(p,∅) = 0 and s(∅) = 0, so
// a combination may cover fewer than c feature sets.
type featureRef struct {
	id      int64
	loc     geo.Point
	score   float64
	virtual bool
}

// featureStream is the one best-first-by-score traversal of a feature
// group. Unlensed it retrieves the feature objects of one feature set in
// non-increasing preference score s(t), ordered by the bound ŝ(e)
// (Algorithm 4 lines 3–7): subtrees that cannot contain a relevant feature
// (empty keyword intersection with W_i) are pruned, and as the final
// element the stream yields the virtual feature ∅. Seen through a lens the
// same walk is Algorithm 2: the first emission is τ_i(p), and ∅ scores the
// 0 of an object no relevant feature reaches.
//
// In signature mode (hashed keyword summaries) a popped leaf's exact score
// is only a bound: the stream resolves it against the feature record —
// paying the verification page read — and re-enqueues it with its exact
// score, preserving the global non-increasing order.
type featureStream struct {
	g         *index.FeatureGroup
	pq        index.PreparedQuery
	lens      lens
	heap      boundHeap
	exhausted bool
	arena     []uint64 // keyword words of the queued leaves, copied out of their pages
}

// lensKind names the spatial predicate or weight a lens applies.
type lensKind uint8

const (
	lensNone      lensKind = iota // STPS: every relevant feature
	lensRange                     // range STDS: features within r of p
	lensInfluence                 // influence STDS: scores decay by 2^(−dist(p,t)/r)
	lensBatch                     // batched STDS: features within r of an unresolved batch object
)

// lens is what distinguishes the STDS score computations (Section 5, and
// Section 7.1 for the decay) from STPS's feature retrieval. It is a plain
// value copied into the stream — not closures — so a stream per object
// allocates nothing, and the unlensed path pays one branch per entry.
//
// The distance primitives are deliberate: Rect.MinDist wherever an entry is
// pushed and for the batch on both sides, the exact Point.Dist only where
// range STDS accepts a popped leaf and in the decay of a leaf. They differ
// in the last bit and in cost.
type lens struct {
	kind lensKind
	p    geo.Point
	r    float64
	// batch is read live: the caller marks objects resolved between pulls.
	batch []*batchObj
}

// admit is consulted where an entry is pushed: whether anything below e can
// pass the lens, and the weight of e's bound.
func (l *lens) admit(e *rtree.Entry) (weight float64, ok bool) {
	switch l.kind {
	case lensRange:
		return 1, e.Rect.MinDist(l.p) <= l.r
	case lensInfluence:
		if e.Leaf {
			return l.decay(e.Rect.Min), true
		}
		return math.Exp2(-e.Rect.MinDist(l.p) / l.r), true
	default: // lensBatch
		return 1, l.nearUnresolved(&e.Rect)
	}
}

// accept is consulted where an unresolved leaf is popped, before its
// verification read: whether the feature passes the lens, and the weight of
// its exact score.
func (l *lens) accept(loc geo.Point) (weight float64, ok bool) {
	switch l.kind {
	case lensRange:
		return 1, loc.Dist(l.p) <= l.r
	case lensInfluence:
		return l.decay(loc), true
	default: // lensBatch
		rect := geo.RectOf(loc)
		return 1, l.nearUnresolved(&rect)
	}
}

// decay is the influence weight 2^(−dist(p,t)/r) of a feature at loc.
func (l *lens) decay(loc geo.Point) float64 { return math.Exp2(-loc.Dist(l.p) / l.r) }

// nearUnresolved reports whether rect is within range of a batch object
// that still lacks its score for the current feature set.
func (l *lens) nearUnresolved(rect *geo.Rect) bool {
	for _, o := range l.batch {
		if !o.resolved && rect.MinDist(o.loc) <= l.r {
			return true
		}
	}
	return false
}

// init (re)initializes the stream in place, keeping the heap's backing
// array so pooled streams reach steady state without allocating. It seeds
// the stream with every part root of the group; the shared bound heap
// merges the part trees into one globally non-increasing score stream. A
// query with no keywords for this set makes every feature irrelevant, so
// the stream yields only ∅.
func (s *featureStream) init(g *index.FeatureGroup, q index.QueryKeywords, l lens) error {
	s.g = g
	s.pq = g.Prepare(q)
	s.lens = l
	s.heap = s.heap[:0]
	s.arena = s.arena[:0]
	s.exhausted = false
	if g.Len() == 0 || q.Set.IsEmpty() {
		return nil
	}
	for pi, part := range g.Parts() {
		if part.Len() == 0 {
			continue
		}
		root, err := part.Tree().RootEntry()
		if err != nil {
			return err
		}
		if !part.EntryRelevant(&root, &s.pq) {
			continue
		}
		w := 1.0
		if s.lens.kind != lensNone {
			var ok bool
			if w, ok = s.lens.admit(&root); !ok {
				continue
			}
		}
		s.heap.push(candidateOf(&root, pi, part.EntryBound(&root, &s.pq)*w))
	}
	return nil
}

// next returns the feature with the highest remaining score — under the
// influence lens, the highest decayed score, which is what ref.score then
// holds — or the virtual feature once, then reports done=true.
func (s *featureStream) next() (ref featureRef, done bool, err error) {
	for s.heap.Len() > 0 {
		it := s.heap.pop()
		idx := s.g.Part(int(it.part))
		if it.leaf {
			if it.resolved {
				return featureRef{id: it.ref, loc: it.loc, score: it.prio}, false, nil
			}
			w := 1.0
			if s.lens.kind != lensNone {
				var ok bool
				if w, ok = s.lens.accept(it.loc); !ok {
					continue
				}
			}
			leaf := it.leafEntry()
			score, relevant, err := idx.ResolveLeaf(&leaf, &s.pq)
			if err != nil {
				return featureRef{}, false, err
			}
			if !relevant {
				continue // signature false positive
			}
			score *= w
			if s.heap.Len() == 0 || score >= s.heap[0].prio-1e-12 {
				return featureRef{id: it.ref, loc: it.loc, score: score}, false, nil
			}
			it.prio, it.resolved = score, true
			s.heap.push(it)
			continue
		}
		// Filter, then pick: most slots of a node are rejected on their
		// keyword words where the page lies; the rest are decoded into c.
		page, err := idx.Tree().View(it.child())
		if err != nil {
			return featureRef{}, false, err
		}
		words := s.pq.RelevantSet().WordsBits()
		var c rtree.Entry
		for i := page.NextIntersecting(0, words); i < page.Len(); i = page.NextIntersecting(i+1, words) {
			mark := len(s.arena)
			if !page.Entry(i, &c, &s.arena) {
				continue // tombstoned
			}
			w, ok := 1.0, true
			if s.lens.kind != lensNone {
				w, ok = s.lens.admit(&c)
			}
			if ok {
				s.heap.push(candidateOf(&c, int(it.part), idx.EntryBound(&c, &s.pq)*w))
			}
			if !ok || !c.Leaf {
				s.arena = s.arena[:mark] // only a queued leaf keeps its keyword words
			}
		}
		page.Release() // a candidate holds copies, nothing of the image
	}
	if !s.exhausted {
		s.exhausted = true
		return featureRef{virtual: true, score: virtualScore}, false, nil
	}
	return featureRef{}, true, nil
}

// candidate is what a best-first heap keeps of an index entry. Nodes are
// shared with every other query and die with their buffer-pool frame, so a
// queued candidate copies out, by value, the few fields the pop side reads
// and never points into a node's entry array or a page image: an internal
// entry keeps only its child page; a leaf keeps the item's id and location
// and — for the deferred ResolveLeaf of signature and approximate mode —
// its score and keyword set (a feature stream's lie in the stream's arena).
type candidate struct {
	// prio orders the heap: the score bound ŝ(e) in a boundHeap (largest
	// first), MINDIST in a distHeap (smallest first).
	prio float64
	loc  geo.Point // leaf: item location
	// ref is the item id of a leaf, the child page of an internal entry.
	ref   int64
	score float64   // leaf: non-spatial score t.s
	kw    kwset.Set // leaf: tree-side keyword set t.W
	part  int32     // feature-group part the entry came from
	leaf  bool
	// resolved marks a leaf whose prio is already its exact score.
	resolved bool
}

// candidateOf copies what the heaps need of the entry e of the given part.
func candidateOf(e *rtree.Entry, part int, prio float64) candidate {
	if !e.Leaf {
		return candidate{prio: prio, ref: int64(e.Child), part: int32(part)}
	}
	return candidate{prio: prio, loc: e.Rect.Min, ref: e.ItemID, score: e.Score, kw: e.Keywords, part: int32(part), leaf: true}
}

// child returns the child page of an internal candidate.
func (c *candidate) child() storage.PageID { return storage.PageID(c.ref) }

// leafEntry rebuilds the leaf entry a candidate was taken from, for the
// index calls that take one.
func (c *candidate) leafEntry() rtree.Entry {
	return rtree.Entry{
		Rect:     geo.RectOf(c.loc),
		Child:    storage.InvalidPage,
		Leaf:     true,
		ItemID:   c.ref,
		Score:    c.score,
		Keywords: c.kw,
	}
}

// boundHeap is a max-heap of candidates over score bounds.
type boundHeap []candidate

func (h boundHeap) Len() int { return len(h) }
