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
// A leaf's bound is its exact score, so every leaf is queued with its
// exact, lensed score and popped as it is; only the batch lens tests a
// popped leaf again, against its live batch.
type featureStream struct {
	g         *index.FeatureGroup
	q         index.QueryKeywords
	lens      lens
	heap      boundHeap
	exhausted bool
	// stats receives the pages the stream expands, leaf and internal.
	stats *Stats
	// pairs are the query's keyword pairs, which cap an inner slot's
	// keyword count against its pair signature (rtree.PageView.PairCap).
	pairs []rtree.Pair
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
// range STDS admits a leaf — beside MinDist — and in the decay of a leaf.
// They differ in the last bit and in cost.
type lens struct {
	kind lensKind
	p    geo.Point
	r    float64
	// batch is read live: the caller marks objects resolved between pulls.
	batch []*batchObj
}

// admit is consulted where an entry is pushed: whether anything below an
// entry with this rectangle can pass the lens, and the weight of the
// entry's bound. A leaf of the range lens is held to the exact distance
// here too, so it is queued final.
func (l *lens) admit(rect *geo.Rect, leaf bool) (weight float64, ok bool) {
	switch l.kind {
	case lensRange:
		ok = rect.MinDist(l.p) <= l.r
		if ok && leaf {
			ok = rect.Min.Dist(l.p) <= l.r
		}
		return 1, ok
	case lensInfluence:
		if leaf {
			return l.decay(rect.Min), true
		}
		return math.Exp2(-rect.MinDist(l.p) / l.r), true
	default: // lensBatch
		return 1, l.nearUnresolved(rect)
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
// the stream with the root page of every non-empty part of the group, at
// +Inf: a bound that needs no read, so the first pops expand the roots and
// each root is read once; the shared bound heap merges the part trees into
// one globally non-increasing score stream. A query with no keywords for
// this set makes every feature irrelevant, so the stream yields only ∅.
// Every page the stream expands is counted in stats.
func (s *featureStream) init(g *index.FeatureGroup, q index.QueryKeywords, l lens, stats *Stats) {
	s.g = g
	s.q = q
	s.lens = l
	s.stats = stats
	s.heap = s.heap[:0] // candidates hold no pointers: nothing to zero
	s.exhausted = false
	if g.Len() == 0 || q.Set.IsEmpty() {
		return
	}
	s.pairs = rtree.AppendPairs(s.pairs[:0], q.Set.WordsBits())
	for pi, part := range g.Parts() {
		if part.Len() > 0 {
			s.heap.push(rootCandidate(part.Tree(), pi, math.Inf(1)))
		}
	}
}

// next returns the feature with the highest remaining score — under the
// influence lens, the highest decayed score, which is what ref.score then
// holds — or the virtual feature once, then reports done=true.
func (s *featureStream) next() (ref featureRef, done bool, err error) {
	for s.heap.Len() > 0 {
		it := s.heap.pop()
		if it.isLeaf() {
			if s.lens.kind == lensBatch {
				// The batch resolves objects between pulls: a leaf admitted
				// when it was queued may be in range of none now.
				if rect := geo.RectOf(it.loc); !s.lens.nearUnresolved(&rect) {
					continue
				}
			}
			return featureRef{id: it.ref, loc: it.loc, score: it.prio}, false, nil
		}
		// Filter, then price: most slots of a node are rejected on their
		// keyword words where the page lies; the scan counts the rest's,
		// and each is priced from its counts and its score in place.
		page, err := s.g.Part(int(it.part)).Tree().View(it.child())
		if err != nil {
			return featureRef{}, false, err
		}
		words, wc, leaf := s.q.Set.WordsBits(), s.q.Set.Count(), page.Leaf()
		if leaf {
			s.stats.LeafExpansions++
		} else {
			s.stats.InternalExpansions++
		}
		for i, inter, count := page.NextCounted(0, words); i < page.Len(); i, inter, count = page.NextCounted(i+1, words) {
			if !page.Visible(i) {
				continue // tombstoned
			}
			w, ok := 1.0, true
			if s.lens.kind != lensNone {
				rect := page.Rect(i)
				w, ok = s.lens.admit(&rect, leaf)
			}
			if ok {
				if !leaf && inter >= 2 {
					// No feature below holds more query keywords than
					// its pairs in the slot's signature allow.
					inter = page.PairCap(i, s.pairs, inter)
				}
				s.heap.push(slotCandidate(&page, i, int(it.part), s.q.BoundCounts(page.Score(i), leaf, inter, count, wc)*w))
			}
		}
	}
	if !s.exhausted {
		s.exhausted = true
		return featureRef{virtual: true, score: virtualScore}, false, nil
	}
	return featureRef{}, true, nil
}

// candidate is what a best-first heap keeps of an index entry. A queued
// candidate copies out, by value, the few fields the pop side reads and
// holds no pointer at all: an internal entry keeps only its child page;
// a leaf keeps the item's id and location. A leaf whose prio is its exact
// score is final. A leaf groupAscendDistance hands on whole keeps its score
// and keyword set in a side slice owned by the heap's user, at index slot:
// the heaps move candidates on every push and pop, so a candidate is kept to
// five words.
type candidate struct {
	// prio orders the heap, largest first: the score bound ŝ(e), or
	// −MINDIST in groupAscendDistance's heap.
	prio float64
	loc  geo.Point // leaf: item location
	// ref is the item id of a leaf, the child page of an internal entry.
	ref  int64
	part int32 // feature-group part the entry came from
	// slot is slotNode, slotFinal, or the leaf's index in the side slice.
	slot int32
}

const (
	slotNode  int32 = -1 // an internal entry
	slotFinal int32 = -2 // a leaf whose prio is its exact score
)

// leafRest is what a leaf candidate that is not final keeps beside it.
type leafRest struct {
	score float64   // non-spatial score t.s
	kw    kwset.Set // keyword set t.W
}

// rootCandidate is the internal candidate for the root page of part's
// tree t at priority prio, a bound the caller knows without reading the
// page.
func rootCandidate(t *rtree.Tree, part int, prio float64) candidate {
	return candidate{prio: prio, ref: int64(t.Root()), part: int32(part), slot: slotNode}
}

// slotCandidate is the candidate for slot i of v, read where it lies: an
// internal slot keeps its child page, a leaf its item id and location,
// final.
func slotCandidate(v *rtree.PageView, i int, part int, prio float64) candidate {
	if !v.Leaf() {
		return candidate{prio: prio, ref: int64(v.Child(i)), part: int32(part), slot: slotNode}
	}
	return candidate{prio: prio, loc: v.Point(i), ref: v.ItemID(i), part: int32(part), slot: slotFinal}
}

// isLeaf reports whether the candidate is a leaf entry.
func (c *candidate) isLeaf() bool { return c.slot != slotNode }

// child returns the child page of an internal candidate.
func (c *candidate) child() storage.PageID { return storage.PageID(c.ref) }

// leafEntry rebuilds the leaf entry a candidate that is not final was taken
// from; rests is the side slice it was queued with.
func (c *candidate) leafEntry(rests []leafRest) rtree.Entry {
	r := &rests[c.slot]
	return rtree.Entry{
		Rect:     geo.RectOf(c.loc),
		Child:    storage.InvalidPage,
		Leaf:     true,
		ItemID:   c.ref,
		Score:    r.score,
		Keywords: r.kw,
	}
}

// boundHeap is a max-heap of candidates on prio (heapops.go).
type boundHeap []candidate

func (h boundHeap) Len() int { return len(h) }
