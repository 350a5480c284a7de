package core

import (
	"math"
	"slices"

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
// Under the range rule a combination stream puts the stream in partner
// order instead (partner, partnerQueue): which entry it takes next, and
// when it yields ∅, is the combination stream's choice.
//
// A leaf's bound is its exact score, so every leaf is queued with its
// exact, lensed score and popped as it is; only the batch lens tests a
// popped leaf again, against its live batch.
type featureStream struct {
	g    *index.FeatureGroup
	q    index.QueryKeywords
	lens lens
	// heap is the bound order: every queued entry by ŝ(e). Under partner
	// order it holds each entry's bound and index in pq.ents, and entries
	// the near order took stay in it until they reach its top.
	heap boundHeap
	// exhausted records that ∅ has been yielded (or, in a test's table
	// stream, that the set has none).
	exhausted bool
	// stats receives the pages the stream expands, leaf and internal.
	stats *Stats
	// levels prices an inner slot by its price points
	// (rtree.PageView.NextInner).
	levels rtree.LevelQuery
	// pq is the partner order's state, nil on every stream not in it;
	// spare keeps its buffers between queries.
	pq, spare *partnerQueue
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
	if s.pq != nil {
		s.pq.ctx = nil
		s.spare, s.pq = s.pq, nil
	}
	if g.Len() == 0 || q.Set.IsEmpty() {
		return
	}
	s.levels.Reset(q.Set.WordsBits())
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
		if !it.isLeaf() {
			if err := s.expand(&it, -1); err != nil {
				return featureRef{}, false, err
			}
			continue
		}
		if s.lens.kind == lensBatch {
			// The batch resolves objects between pulls: a leaf admitted
			// when it was queued may be in range of none now.
			if rect := geo.RectOf(it.loc); !s.lens.nearUnresolved(&rect) {
				continue
			}
		}
		return featureRef{id: it.ref, loc: it.loc, score: it.prio}, false, nil
	}
	if !s.exhausted {
		s.exhausted = true
		return featureRef{virtual: true, score: virtualScore}, false, nil
	}
	return featureRef{}, true, nil
}

// pullFrom says where a partner-ordered stream's next step takes its entry
// from.
type pullFrom uint8

const (
	fromBound pullFrom = iota // the bound order's top; ∅ once nothing is queued
	fromNear                  // the near order's top
	fromVoid                  // ∅ now, ahead of what is queued
)

// step takes one entry off a partner-ordered stream from the order named:
// a page it expands (got=false), a leaf it yields as a feature, or ∅.
// After ∅ and every entry it reports done.
func (s *featureStream) step(from pullFrom) (ref featureRef, got, done bool, err error) {
	var e int32
	switch {
	case from == fromNear:
		e = s.pq.takeNear()
	case from == fromBound && s.topBound():
		e = s.heap.pop().slot
		s.pq.take(e)
	case from == fromVoid || !s.exhausted:
		s.exhausted = true
		return featureRef{virtual: true, score: virtualScore}, true, false, nil
	default:
		return featureRef{}, false, true, nil
	}
	it := s.pq.candidate(e)
	if it.isLeaf() {
		return featureRef{id: it.ref, loc: it.loc, score: it.prio}, true, false, nil
	}
	return featureRef{}, false, false, s.expand(&it, e)
}

// expand reads the page of the internal candidate it and queues its
// admitted slots; parent is its index in pq.ents under partner order (−1
// in score order).
// Filter, then price: most slots of a node are rejected where the page
// lies, a leaf's on its keyword words and an inner page's on the query
// keywords it holds; the scan counts the rest's, on an inner page takes
// their price points, and each is priced from them in place.
func (s *featureStream) expand(it *candidate, parent int32) error {
	page, err := s.g.Part(int(it.part)).Tree().View(it.child())
	if err != nil {
		return err
	}
	words, wc, leaf := s.q.Set.WordsBits(), s.q.Set.Count(), page.Leaf()
	if leaf {
		s.stats.LeafExpansions++
	} else {
		s.stats.InternalExpansions++
	}
	if s.pq != nil {
		s.pq.open(parent)
	}
	// One loop over either scan: a leaf is met by its keyword words, an
	// inner page by its price points.
	n := page.Len()
	var inter, count int
	for i := 0; ; i++ {
		if leaf {
			i, inter, count = page.NextCounted(i, words)
		} else {
			i = page.NextInner(i, &s.levels)
		}
		if i == n {
			return nil
		}
		if !page.Visible(i) {
			continue // tombstoned
		}
		w, ok := 1.0, true
		if s.lens.kind != lensNone {
			rect := page.Rect(i)
			w, ok = s.lens.admit(&rect, leaf)
		}
		if !ok {
			continue
		}
		var prio float64
		if leaf {
			prio = s.q.BoundCounts(page.Score(i), true, inter, count, wc)
		} else {
			prio = s.q.BoundLevels(s.levels.Front(), wc)
		}
		c := slotCandidate(&page, i, int(it.part), prio*w)
		if s.pq == nil {
			s.heap.push(c)
		} else if leaf {
			s.queue(&c, geo.RectOf(c.loc))
		} else {
			s.queue(&c, page.Rect(i))
		}
	}
}

// partnerCtx is what the partner-ordered streams of one range STPS query
// share; the combination stream owns it and keeps it current.
type partnerCtx struct {
	// u[o] is U_o, a bound on every feature set o has not yielded yet: the
	// bound order's top under partner order (0 once nothing is queued), the
	// score of the set's last yield in score order (1 before the first).
	// It only falls.
	u []float64
	// partners[o] are set o's joined features: pulled, and scoring above
	// U_o since.
	partners [][]partner
	// reach is 2r widened by a relative 1e-8, so that no rounding of a
	// MINDIST leaves out a partner Definition 4's 2r test keeps; reach2 is
	// its square.
	reach, reach2 float64
}

// partner is a joined feature of set set.
type partner struct {
	loc   geo.Point
	score float64
	set   int
}

// partnerQueue is a stream's state under partner order: the range rule's
// κ(e) = ŝ(e) + Σ_{o≠j} max(U_o, N_o(e)) for a queued entry e of set j,
// where N_o(e) is the best joined o-feature within 2r of e's MBR. Every
// queued entry sits in the bound order (featureStream.heap, each candidate
// carrying the entry's index in slot) by ŝ(e), which gives U_j; one with a
// near partner (some N_o(e) > 0) sits in the near order too, by κ(e) as
// last computed. A joined feature outscores U_o, so for c = 2 a near key
// is exact; for c > 2 the U_o of a set without a near partner can fall
// under it, and a key only overstates until it is recomputed at the near
// order's top. An entry without a near partner has κ(e) ≤ U_j + Σ_{o≠j}
// U_o, so the larger of that and the near order's top is the set's largest
// κ with no entry re-keyed when a U falls.
type partnerQueue struct {
	ctx *partnerCtx
	set int // j, the stream's set
	// ents holds every entry the stream queued this query, at the index the
	// bound and near orders carry: the roots first, ents[:roots], then the
	// child run of each expanded entry, in the order of expansion.
	ents  []queuedEntry
	roots int32
	// parent is the entry whose expansion is queuing its run, −1 for the
	// roots.
	parent int32
	near   keyHeap
	// nearN holds a row of c scores for each entry with a near partner:
	// N_o(e) at column o, 0 without an o-partner within 2r.
	nearN []float64
	// cands are the other sets' partners within 2r of the page being
	// expanded: the only ones its slots can have.
	cands []partner
	live  int // queued entries not yet taken
}

// queuedEntry is one entry a partner-ordered stream queued: what its
// candidate holds, its MBR, its row in nearN (−1 while it has no near
// partner) and, for an internal entry taken and expanded, its child run:
// the entries its expansion queued, ents[kids:end].
type queuedEntry struct {
	rect      geo.Rect
	prio      float64
	ref       int64 // item id of a leaf, child page of an internal entry
	part      int32
	near      int32
	kids, end int32
	leaf      bool
	taken     bool
}

// keyed is an entry of the near order at the κ it was last priced at.
type keyed struct {
	key float64
	ent int32
}

// keyHeap is the near order (heapops.go).
type keyHeap []keyed

// everywhere is the MBR of what lies below the roots: every point is within
// 0 of it.
var everywhere = geo.Rect{Min: geo.Point{X: math.Inf(-1), Y: math.Inf(-1)}, Max: geo.Point{X: math.Inf(1), Y: math.Inf(1)}}

// partner puts a freshly initialized stream of set set into partner order
// under ctx, moving the roots init seeded into its queue.
func (s *featureStream) partner(ctx *partnerCtx, set int) {
	s.pq, s.spare = s.spare, nil
	if s.pq == nil {
		s.pq = new(partnerQueue)
	}
	s.pq.ctx, s.pq.set = ctx, set
	s.pq.reset()
	for i := range s.heap { // roots, all at +Inf: rewriting them in place keeps the heap
		c := s.heap[i]
		s.heap[i] = candidate{prio: c.prio, slot: s.pq.register(&c, &everywhere)}
	}
}

// release keeps the stream's partner queue as its spare and drops what
// the stream points at of the query and the engine it served.
func (s *featureStream) release() {
	if s.pq != nil {
		s.spare, s.pq = s.pq, nil
	}
	if s.spare != nil {
		s.spare.ctx = nil
	}
	s.g, s.stats, s.lens.batch = nil, nil, nil
}

// queue queues the candidate c, whose MBR is rect, under partner order.
func (s *featureStream) queue(c *candidate, rect geo.Rect) {
	s.heap.push(candidate{prio: c.prio, slot: s.pq.register(c, &rect)})
}

// topBound drops the entries the near order took off the bound order's top
// and reports whether a queued one is left there.
func (s *featureStream) topBound() bool {
	for s.heap.Len() > 0 && s.pq.ents[s.heap[0].slot].taken {
		s.heap.pop()
	}
	return s.heap.Len() > 0
}

// bound is the bound order's top under partner order, 0 once nothing is
// queued: no feature the stream has not yielded scores more.
func (s *featureStream) bound() float64 {
	if s.topBound() {
		return s.heap[0].prio
	}
	return 0
}

// spent reports whether the stream has nothing left to yield, ∅ included.
func (s *featureStream) spent() bool {
	if s.pq != nil {
		return s.exhausted && s.pq.live == 0
	}
	return s.exhausted && s.heap.Len() == 0
}

// reset empties the queue for the roots a query queues first.
func (q *partnerQueue) reset() {
	q.ents, q.near, q.nearN, q.roots = q.ents[:0], q.near[:0], q.nearN[:0], 0
	q.live = 0
	q.open(-1)
}

// open starts the child run of entry parent (−1: the roots) and gathers
// the candidate partners of the entries its expansion queues: an o-partner
// within 2r of a slot is within 2r of its page's MBR, so a parent without
// one passes none on.
func (q *partnerQueue) open(parent int32) {
	q.parent = parent
	rect := &everywhere
	if parent >= 0 {
		en := &q.ents[parent]
		rect, en.kids, en.end = &en.rect, int32(len(q.ents)), int32(len(q.ents))
	}
	q.cands = q.cands[:0]
	if parent >= 0 && q.ents[parent].near < 0 {
		return
	}
	for o, ps := range q.ctx.partners {
		if o == q.set || parent >= 0 && q.row(parent)[o] == 0 {
			continue
		}
		for _, p := range ps {
			if rect.MinDist2(p.loc) <= q.ctx.reach2 {
				q.cands = append(q.cands, p)
			}
		}
	}
}

// register files candidate c with MBR rect at the end of the open run,
// prices its near partners among the candidates open gathered, queues it in
// the near order if it has one, and returns its index.
func (q *partnerQueue) register(c *candidate, rect *geo.Rect) int32 {
	e := int32(len(q.ents))
	q.ents = append(q.ents, queuedEntry{rect: *rect, prio: c.prio, ref: c.ref, part: c.part, near: -1, leaf: c.isLeaf()})
	q.live++
	if q.parent < 0 {
		q.roots = e + 1
	} else {
		q.ents[q.parent].end = e + 1
	}
	found := false
	for i := range q.cands {
		p := &q.cands[i]
		if rect.MinDist2(p.loc) <= q.ctx.reach2 {
			if n := &q.row(e)[p.set]; p.score > *n {
				*n, found = p.score, true
			}
		}
	}
	if found {
		q.near.push(keyed{key: q.kappa(e), ent: e})
	}
	return e
}

// row returns entry e's row of nearN, giving it one if it has none.
func (q *partnerQueue) row(e int32) []float64 {
	c := len(q.ctx.u)
	en := &q.ents[e]
	if en.near < 0 {
		en.near = int32(len(q.nearN) / c)
		q.nearN = slices.Grow(q.nearN, c)
		clear(q.nearN[len(q.nearN) : len(q.nearN)+c])
		q.nearN = q.nearN[:len(q.nearN)+c]
	}
	at := int(en.near) * c
	return q.nearN[at : at+c]
}

// candidate rebuilds the candidate entry e was queued as.
func (q *partnerQueue) candidate(e int32) candidate {
	en := &q.ents[e]
	if en.leaf {
		return candidate{prio: en.prio, loc: en.rect.Min, ref: en.ref, part: en.part, slot: slotFinal}
	}
	return candidate{prio: en.prio, ref: en.ref, part: en.part, slot: slotNode}
}

// kappa is κ(e) under the U of now, for an entry with a near partner.
func (q *partnerQueue) kappa(e int32) float64 {
	k, near := q.ents[e].prio, q.row(e)
	for o, u := range q.ctx.u {
		if o != q.set {
			k += max(u, near[o])
		}
	}
	return k
}

// nearTop returns the near order's top key (−∞ when it is empty), first
// dropping taken entries and re-keying stale ones there.
func (q *partnerQueue) nearTop() float64 {
	for len(q.near) > 0 {
		top := &q.near[0]
		if q.ents[top.ent].taken {
			q.near.pop()
			continue
		}
		if k := q.kappa(top.ent); k < top.key {
			top.key = k
			q.near.fixTop()
			continue
		}
		return top.key
	}
	return negInf
}

// take marks entry e taken off the queue.
func (q *partnerQueue) take(e int32) {
	q.ents[e].taken = true
	q.live--
}

// takeNear takes the near order's top entry and returns its index.
func (q *partnerQueue) takeNear() int32 {
	q.nearTop()
	e := q.near.pop().ent
	q.take(e)
	return e
}

// raise makes the joining feature p a near partner of every queued entry
// within 2r of it that had no better one from p's set. It walks the
// expanded frontier from the roots: every queued entry is a root or in the
// child run of a taken entry, and a child's MBR lies in its parent's, so
// nothing within 2r of p lies below a taken entry farther from it.
func (q *partnerQueue) raise(p *partner) { q.raiseRun(0, q.roots, p) }

// raiseRun is raise over the entries ents[from:to] and what lies below
// them.
func (q *partnerQueue) raiseRun(from, to int32, p *partner) {
	for e := from; e < to; e++ {
		en := &q.ents[e]
		switch {
		case en.rect.MinDist2(p.loc) > q.ctx.reach2:
		case !en.taken:
			q.offer(e, p)
		case !en.leaf:
			q.raiseRun(en.kids, en.end, p)
		}
	}
}

// offer makes p entry e's near partner from p's set if it beats the one e
// has, and queues e in the near order at its raised κ.
func (q *partnerQueue) offer(e int32, p *partner) {
	if n := &q.row(e)[p.set]; p.score > *n {
		*n = p.score
		q.near.push(keyed{key: q.kappa(e), ent: e})
	}
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
	// slot is slotNode, slotFinal, or an index in a side slice the heap's
	// user owns: a non-final leaf's in groupAscendDistance, an entry's in
	// pq.ents in a partner-ordered stream's bound order.
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
