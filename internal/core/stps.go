package core

import (
	"math"
	"sort"
	"sync"
	"time"

	"stpq/internal/geo"
	"stpq/internal/obs"
	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// STPS executes the Spatio-Textual Preference Search algorithm (paper
// Section 6 for the range variant, Section 7 for the influence and NN
// variants): it retrieves highly ranked valid combinations of feature
// objects first, then searches for data objects in their neighborhood.
func (e *Engine) STPS(q Query) ([]Result, Stats, error) {
	if err := q.Validate(len(e.features)); err != nil {
		return nil, Stats{}, err
	}
	root := e
	e = e.session() // private read accounting; safe under concurrency
	defer root.releaseSession(e)
	var stats Stats
	before := e.snapshotReads()
	tr := e.newTrace("stps."+q.Variant.String(), &q)
	start := time.Now()
	var (
		results []Result
		err     error
	)
	switch q.Variant {
	case RangeScore:
		results, err = e.stpsRange(&q, &stats, tr)
	case InfluenceScore:
		results, err = e.stpsInfluence(&q, &stats, tr)
	case NearestNeighborScore:
		results, err = e.stpsNearestNeighbor(&q, &stats, tr)
	}
	e.countShards(&stats)
	finishTrace(tr, &stats)
	e.finishStats(&stats, before, start)
	if err != nil {
		return nil, stats, err
	}
	sortResults(results)
	return results, stats, nil
}

// sortResults orders by the total order betterResult (score descending,
// ties by ascending id) for deterministic output.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool { return betterResult(rs[i], rs[j]) })
}

// stpsRange is Algorithm 3: emit valid combinations in non-increasing
// score; every not-yet-seen data object within distance r of all feature
// objects of the combination has exactly that combination's score
// (Lemma 1). Objects are collected through the tie-aware accumulator and
// the loop stops only once the combination score drops strictly below the
// k-th result — combinations tying it can still contribute objects that
// win the id tie-break. The stream is told that k-th score, so once
// nothing it has queued or can still find reaches it, it stops pulling
// features instead of searching for the combination the loop would stop
// at.
func (e *Engine) stpsRange(q *Query, stats *Stats, tr *obs.Trace) ([]Result, error) {
	cs, err := newCombinationStream(e, q, stats, tr)
	if err != nil {
		return nil, err
	}
	seen := e.scratchSeen()
	acc := e.newTopk(q.K)
	for {
		sp := tr.StartPhase("combos.generate")
		comb, ok, err := cs.next(acc.threshold())
		sp.End()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if acc.full() && comb.score < acc.threshold() {
			break
		}
		sp = tr.StartPhase("objects.retrieve")
		err = e.objectsMatchingRangeCombo(comb, q.Radius, func(entry rtree.Entry) bool {
			if seen[entry.ItemID] {
				return true
			}
			seen[entry.ItemID] = true
			stats.ObjectsScored++
			acc.offer(Result{ID: entry.ItemID, Location: entry.Rect.Min, Score: comb.score})
			return true
		})
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return acc.results(), nil
}

// probeParts runs one object probe over the object parts: reach reports
// whether the probe's region comes within a part's MBR, and every part it
// rules out is skipped without a page read. A lone part is never skipped —
// its root page filters the probe itself, which keeps a one-part engine
// reading exactly the pages a bare object tree does.
func (e *Engine) probeParts(reach func(geo.Rect) bool, probe func(*rtree.Tree) error) error {
	for pi, part := range e.objects {
		if len(e.objects) > 1 && (e.rects[pi].IsEmpty() || !reach(e.rects[pi])) {
			continue
		}
		e.markProbed(pi)
		if err := probe(part.Tree()); err != nil {
			return err
		}
	}
	return nil
}

// objectsMatchingRangeCombo visits data objects within distance r of every
// concrete feature of the combination (getDataObjects, Section 6.4).
// Parts and subtrees are pruned as soon as one feature is farther than r
// from their MBR.
func (e *Engine) objectsMatchingRangeCombo(comb combination, r float64, fn func(rtree.Entry) bool) error {
	anchors := make([]geo.Point, 0, len(comb.refs))
	for _, ref := range comb.refs {
		if !ref.virtual {
			anchors = append(anchors, ref.loc)
		}
	}
	inReach := func(rect geo.Rect) bool {
		for _, a := range anchors {
			if rect.MinDist(a) > r {
				return false
			}
		}
		return true
	}
	return e.probeParts(inReach, func(t *rtree.Tree) error {
		return t.SearchFiltered(func(rect geo.Rect, leaf bool) bool {
			if leaf {
				for _, a := range anchors {
					if rect.Min.Dist(a) > r {
						return false
					}
				}
				return true
			}
			return inReach(rect)
		}, fn)
	})
}

// stpsInfluence is Algorithm 5. Combinations arrive in non-increasing
// s(C), which upper-bounds the influence score of any object under any
// unseen combination (the score at distance 0), so the loop stops once
// s(C) no longer exceeds the current k-th object score τ. The stream is
// told τ, and queues no combination whose influenceBound is already
// below it (extendBounded).
func (e *Engine) stpsInfluence(q *Query, stats *Stats, tr *obs.Trace) ([]Result, error) {
	cs, err := newCombinationStream(e, q, stats, tr)
	if err != nil {
		return nil, err
	}
	acc := e.newInfluenceTopK(q.K)
	for {
		sp := tr.StartPhase("combos.generate")
		comb, ok, err := cs.next(acc.threshold())
		sp.End()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if acc.full() && comb.score < acc.threshold() {
			break
		}
		// Geometric refinement: s(C) assumes an object at distance 0 from
		// every feature; when the features are far apart no object can
		// collect their full scores simultaneously. Skip the object
		// search when even the geometric bound cannot beat τ — the test
		// the stream made when it queued the combination, against the τ
		// of now. (Exact: the bound dominates Σ s_i·2^(−dist(p,t_i)/r)
		// for every p.) Strict: an object tying τ can still win the id
		// tie-break.
		if influenceBound(comb.refs, q.Radius) < acc.threshold() {
			continue
		}
		sp = tr.StartPhase("objects.retrieve")
		err = e.topKInfluence(comb, q, acc, stats)
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return acc.results(), nil
}

// influenceTopK maintains the running top-k of the influence variant: the
// best known score per object (scores only improve as combinations with
// new geometry arrive) and the current k best, kept sorted so the k-th
// score — Algorithm 5's threshold τ — is O(1).
type influenceTopK struct {
	k    int
	best map[int64]float64
	top  []Result // sorted by score descending, at most k entries
}

func newInfluenceTopK(k int) *influenceTopK {
	return &influenceTopK{k: k, best: make(map[int64]float64)}
}

// full reports whether k objects have been seen.
func (a *influenceTopK) full() bool { return len(a.top) >= a.k }

// threshold returns the k-th best score, or −∞ before k objects are known.
// As with topkAccumulator, ties at the threshold can still enter via the
// id tie-break, so callers prune only strictly below it.
func (a *influenceTopK) threshold() float64 {
	if !a.full() {
		return negInf
	}
	return a.top[a.k-1].Score
}

// offer records a (possibly improved) score for an object and reports
// whether the object was new.
func (a *influenceTopK) offer(id int64, loc geo.Point, score float64) (isNew bool) {
	prev, exists := a.best[id]
	if exists && score <= prev {
		return false
	}
	a.best[id] = score
	// Remove a stale entry for this object from the top list.
	if exists {
		for i := range a.top {
			if a.top[i].ID == id {
				a.top = append(a.top[:i], a.top[i+1:]...)
				break
			}
		}
	}
	r := Result{ID: id, Location: loc, Score: score}
	// Insert in total-order position (score desc, id asc) if it belongs in
	// the top k.
	pos := sort.Search(len(a.top), func(i int) bool { return betterResult(r, a.top[i]) })
	if pos < a.k {
		a.top = append(a.top, Result{})
		copy(a.top[pos+1:], a.top[pos:])
		a.top[pos] = r
		if len(a.top) > a.k {
			a.top = a.top[:a.k]
		}
	}
	return !exists
}

// results returns the final top-k, sorted.
func (a *influenceTopK) results() []Result {
	out := make([]Result, len(a.top))
	copy(out, a.top)
	sortResults(out)
	return out
}

// influenceBound upper-bounds the influence score Σ_j s_j·u_j, with
// u_j = 2^(−dist(p,t_j)/r), that any location p can achieve under the
// concrete members of refs. The triangle inequality gives u_i·u_j ≤ D_ij =
// 2^(−d_ij/r), and s_i·u_i + s_j·u_j is convex along that hyperbola, so it
// peaks at an end of it — p on the better feature of the pair:
//
//	s_i·u_i + s_j·u_j ≤ max(s_i,s_j) + min(s_i,s_j)·D_ij.
//
// Every member is in n−1 pairs, so the pairs' sum bounds (n−1) times the
// score: exact for n = 2. From three members on the nearest-feature bound
// can be the lower one — with i the feature nearest p (u_i maximal),
// u_j ≤ √D_ij, so Σ_j s_j·u_j ≤ s_i + Σ_{j≠i} s_j·√D_ij for the worst i —
// and the result is the smaller of the two.
func influenceBound(refs []featureRef, r float64) float64 {
	n, pairs, nearest := 0, 0.0, 0.0
	for i := range refs {
		ri := &refs[i]
		if ri.virtual {
			continue
		}
		n++
		v := ri.score
		for j := range refs {
			rj := &refs[j]
			if j == i || rj.virtual {
				continue
			}
			d := math.Exp2(-ri.loc.Dist(rj.loc) / r)
			v += rj.score * math.Sqrt(d)
			if j > i {
				pairs += max(ri.score, rj.score) + min(ri.score, rj.score)*d
			}
		}
		nearest = max(nearest, v)
	}
	if n < 2 {
		return nearest
	}
	return min(pairs/float64(n-1), nearest)
}

// decayTerm is one concrete member's share of an entry's influence price,
// s·2^(−x): the member's score and its decay exponent x = dist/r.
type decayTerm struct{ score, x float64 }

// decayTerms prices en against the concrete members of refs, in refs
// order, into ts: x is the distance to the object of a leaf (math.Hypot),
// or the MINDIST to the MBR of a node, over r. influenceAt sums the terms
// into the exact price; the pre-tests before it read their own squared
// distances (influencePrune).
func decayTerms(refs []featureRef, r float64, rect *geo.Rect, leaf bool, ts []decayTerm) []decayTerm {
	ts = ts[:0]
	for i := range refs {
		ref := &refs[i]
		if ref.virtual {
			continue
		}
		var d float64
		if leaf {
			d = rect.Min.Dist(ref.loc)
		} else {
			d = rect.MinDist(ref.loc)
		}
		ts = append(ts, decayTerm{score: ref.score, x: d / r})
	}
	return ts
}

// influenceAt is the influence score Σ s·2^(−x) of a leaf entry priced by
// decayTerms, or (MINDIST) an upper bound on that of every object below a
// node.
func influenceAt(ts []decayTerm) float64 {
	sum := 0.0
	for _, t := range ts {
		sum += t.score * math.Exp2(-t.x)
	}
	return sum
}

// The decay table samples 2^(−x) at decaySteps points per unit of x over
// [0, decaySpan). Its last entry, about 6e-20, is the ceiling for every x
// beyond: far below any limit the search compares it with.
const (
	decaySteps = 16
	decaySpan  = 64
)

// decayTable[i] is 2^(−i/decaySteps), raised by a relative 1e-12 that
// covers math.Exp2's own error (under an ulp). Built once, at package init.
var decayTable = func() (t [decaySteps * decaySpan]float64) {
	for i := range t {
		t[i] = math.Exp2(-float64(i)/decaySteps) * (1 + 1e-12)
	}
	return t
}()

// decayCeil returns a ceiling on math.Exp2(−x) for every x ≥ 0: the table
// entry at i = ⌊x·decaySteps⌋, whose power −i/decaySteps is at least −x
// (the product by a power of two is exact). Beyond the table, +Inf and NaN
// read the last entry, still above 2^(−x). It never increases with x.
func decayCeil(x float64) float64 {
	if !(x < decaySpan) {
		return decayTable[len(decayTable)-1]
	}
	return decayTable[int(x*decaySteps)]
}

const (
	// reachMargin is the relative share of the limit the reaches keep in
	// hand for rounding.
	reachMargin = 1e-9
	// reachMinLimit is the smallest limit the reach test runs under. Below
	// it a member's share of the limit could be subnormal, where rounding
	// is absolute and could eat the margin.
	reachMinLimit = 0x1p-900
	// minDist2 is the smallest squared distance whose root the pre-tests
	// trust: below it Dist2 and MinDist2 may have lost precision to
	// underflow. A smaller squared reach is raised to it (a longer reach
	// rejects less), and a leaf's ceiling reads x = 0 there.
	minDist2 = 0x1p-1000
	// leafShrink keeps a leaf's tabled exponent, taken from √Dist2, at or
	// below the exponent math.Hypot gives: the two distances differ by a
	// few ulps.
	leafShrink = 1 - 1e-12
)

// influencePrune holds what topKInfluence tests a child against before it
// pays the child's exact price, for one combination of n concrete members
// and a push limit L. The tests run in this order, and each only rejects
// children whose exact price is strictly below L:
//
//   - Reaches. With L′ = L·(1−reachMargin), an entry farther than
//     r·log2(n·s_j/L′) from every member j has every term
//     s_j·2^(−d_j/r) below L′/n, so its price is below L′; the margin
//     covers the rounding of the distances, exponentials and sum. A member
//     with n·s_j < L′ reaches nothing, as 2^(−x) ≤ 1. The test compares
//     squared distances — Dist2 for a leaf, MinDist2 for a node — with
//     squared reaches, which are derived anew only when L moves, and is
//     off while L < reachMinLimit (−∞ and L ≤ 0 included).
//   - The ceiling: Σ s_j·decayCeil(x_j) over the same squared distances,
//     in refs order. For a node x_j = √MinDist2/r is the exact price's own
//     exponent. For a leaf x_j = √Dist2/r·leafShrink is at or below the
//     exponent the exact price takes from math.Hypot, and decayCeil never
//     increases, so the ceiling still dominates: only a leaf that clears
//     it pays math.Hypot and math.Exp2.
//   - The floor. L is the search's limit, raised to P_K, the smallest of
//     the K best leaf prices pushed, once K leaves are: a child priced
//     strictly below P_K is not pushed. Those K leaves pop before it, and
//     once all K are emitted the k-th score the search emitted is at least
//     P_K, so popping the child could only have ended the search.
type influencePrune struct {
	r       float64
	k       int
	members []reachMember
	reachAt float64 // the push limit the reaches were derived for
	on      bool    // whether the reach test runs under reachAt
	// best is a min-heap of the k best leaf prices pushed. It grows only as
	// leaves are pushed: k has no upper bound.
	best []float64
}

// reachMember is one concrete member of the combination under search.
type reachMember struct {
	loc    geo.Point
	score  float64
	reach2 float64 // squared reach under the limit; −1 when it reaches nothing
	d2     float64 // squared distance to the entry outOfReach last measured
}

// reset prepares p for a search of the concrete members of refs at
// radius r for k objects, with no limit yet.
func (p *influencePrune) reset(refs []featureRef, r float64, k int) {
	p.r, p.k, p.reachAt, p.on = r, k, negInf, false
	p.members = p.members[:0]
	for i := range refs {
		if ref := &refs[i]; !ref.virtual {
			p.members = append(p.members, reachMember{loc: ref.loc, score: ref.score})
		}
	}
	p.best = p.best[:0]
}

// floor returns the push limit for the search's limit: raised to P_K once
// k leaves are pushed. The reaches follow it.
func (p *influencePrune) floor(limit float64) float64 {
	if len(p.best) == p.k && p.best[0] > limit {
		limit = p.best[0]
	}
	if limit != p.reachAt {
		p.deriveReaches(limit)
	}
	return limit
}

// deriveReaches derives every member's squared reach for the push limit L.
func (p *influencePrune) deriveReaches(L float64) {
	p.reachAt = L
	p.on = L >= reachMinLimit && L <= math.MaxFloat64
	if !p.on {
		return
	}
	share := L * (1 - reachMargin) / float64(len(p.members))
	for j := range p.members {
		m := &p.members[j]
		if m.score < share {
			m.reach2 = -1
			continue
		}
		d := p.r * math.Log2(m.score/share)
		m.reach2 = max(d*d, minDist2)
	}
}

// outOfReach measures the squared distance of every member to the entry
// with rectangle rect and reports whether all of them are beyond their
// members' reaches: then the entry's price is below the limit. Always
// false while the test is off.
func (p *influencePrune) outOfReach(rect *geo.Rect, leaf bool) bool {
	out := p.on
	ms := p.members
	if leaf { // one loop per kind: this runs for every child the search sees
		pt := rect.Min
		for j := range ms {
			m := &ms[j]
			m.d2 = pt.Dist2(m.loc)
			if !(m.d2 > m.reach2) {
				out = false
			}
		}
		return out
	}
	for j := range ms {
		m := &ms[j]
		m.d2 = rect.MinDist2(m.loc)
		if !(m.d2 > m.reach2) {
			out = false
		}
	}
	return out
}

// ceil is the tabled ceiling on the price of the entry outOfReach last
// measured. A leaf whose squared distance lies outside [minDist2,
// math.MaxFloat64] reads x = 0, the largest ceiling: there its root may be
// off by more than leafShrink covers.
func (p *influencePrune) ceil(leaf bool) float64 {
	sum := 0.0
	for j := range p.members {
		m := &p.members[j]
		var x float64
		switch {
		case !leaf:
			x = math.Sqrt(m.d2) / p.r
		case m.d2 >= minDist2 && m.d2 <= math.MaxFloat64:
			x = math.Sqrt(m.d2) / p.r * leafShrink
		}
		sum += m.score * decayCeil(x)
	}
	return sum
}

// pushed records the price of a leaf the search queued among the k best.
func (p *influencePrune) pushed(prio float64) {
	switch {
	case len(p.best) < p.k:
		heapPush(&p.best, prio, priceBelow)
	case prio > p.best[0]:
		p.best[0] = prio
		heapFixTop(&p.best, priceBelow)
	}
}

// priceBelow orders best as a min-heap.
func priceBelow(a, b *float64) bool { return *a < *b }

// topKInfluence runs a best-first top-k search on the object R-trees — one
// heap seeded with every part's root — where an object's priority is its
// influence score under this combination, Σ_i s(t_i)·2^(−dist(p,t_i)/r),
// and a node's priority (using MINDIST) upper-bounds every object below. A
// part whose root never reaches the top of the heap is never descended
// into. The search stops when the max remaining
// bound falls strictly below the accumulator's (re-read, hence tightening)
// threshold, or strictly below the k-th score emitted by this search —
// either way at least k objects with strictly better scores are already
// known, so nothing below can enter the top-k even via the id tie-break.
// An entry already below that limit when its node is expanded is not
// queued: the limit only rises, so popping it could only end the search.
// Nor is an entry below the K-th best leaf price queued so far. The
// pre-tests of influencePrune — the reaches, then the tabled ceiling —
// run first, and only an entry that clears them pays its exact price's
// exponentials. Each rejects only entries the exact price would, and a
// queued entry carries its exact price: the pops, page reads and answers
// are those of the exact test alone.
func (e *Engine) topKInfluence(comb combination, q *Query, acc *influenceTopK, stats *Stats) error {
	var buf [8]decayTerm // c ≤ 8 members price without allocating
	ts := buf[:0]
	pr := e.scratchInfluencePrune()
	pr.reset(comb.refs, q.Radius, q.K)
	pq := e.scratchBoundHeap()
	for pi, part := range e.objects {
		root, err := part.Tree().RootEntry()
		if err != nil {
			return err
		}
		ts = decayTerms(comb.refs, q.Radius, &root.Rect, false, ts)
		pq.push(candidateOf(&root, pi, influenceAt(ts), nil))
	}
	emitted := 0
	kth := negInf // k-th best score emitted by this search (pops are non-increasing)
	for pq.Len() > 0 {
		it := pq.pop()
		limit := acc.threshold()
		if emitted >= q.K && kth > limit {
			limit = kth
		}
		if it.prio < limit {
			return nil // nothing below can enter the top-k, even by tie-break
		}
		if it.isLeaf() {
			if acc.offer(it.ref, it.loc, it.prio) {
				stats.ObjectsScored++
			}
			emitted++
			if emitted == q.K {
				kth = it.prio
			}
			continue
		}
		e.markProbed(int(it.part))
		v, err := e.objects[it.part].Tree().View(it.child())
		if err != nil {
			return err
		}
		leaf := v.Leaf()
		floor := pr.floor(limit)
		for i := 0; i < v.Len(); i++ {
			if !v.Visible(i) {
				continue
			}
			var rect geo.Rect
			if leaf { // Point is inlined, Rect is a call: most slots are leaves'
				rect = geo.RectOf(v.Point(i))
			} else {
				rect = v.Rect(i)
			}
			if pr.outOfReach(&rect, leaf) || pr.ceil(leaf) < floor {
				continue
			}
			ts = decayTerms(comb.refs, q.Radius, &rect, leaf, ts)
			if prio := influenceAt(ts); prio >= floor {
				pq.push(slotCandidate(&v, i, int(it.part), prio))
				if leaf {
					pr.pushed(prio)
					floor = pr.floor(limit)
				}
			}
		}
	}
	return nil
}

// stpsNearestNeighbor processes the NN variant (Section 7.2): for each
// combination, the qualifying region is the intersection of the Voronoi
// cells of its feature objects; data objects inside it have exactly the
// combination's score. The stream only emits combinations whose cells can
// meet (the cells rule, combinations.go); one whose cells still do not
// intersect is discarded when the region comes out empty. As in the range
// variant the stream is told the k-th score and stops pulling — and
// building the cells of what it pulls — once nothing left can reach it.
func (e *Engine) stpsNearestNeighbor(q *Query, stats *Stats, tr *obs.Trace) ([]Result, error) {
	cs, err := newCombinationStream(e, q, stats, tr)
	if err != nil {
		return nil, err
	}
	seen := e.scratchSeen()
	acc := e.newTopk(q.K)
	for {
		sp := tr.StartPhase("combos.generate")
		comb, ok, err := cs.next(acc.threshold())
		sp.End()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		if acc.full() && comb.score < acc.threshold() {
			break
		}
		sp = tr.StartPhase("objects.retrieve")
		region, err := e.comboRegion(comb, stats, tr)
		if err == nil && !region.IsEmpty() {
			err = e.probeParts(region.IntersectsRect, func(t *rtree.Tree) error {
				return t.SearchPolygon(region, func(entry rtree.Entry) bool {
					if seen[entry.ItemID] {
						return true
					}
					seen[entry.ItemID] = true
					stats.ObjectsScored++
					acc.offer(Result{ID: entry.ItemID, Location: entry.Point(), Score: comb.score})
					return true
				})
			})
		}
		sp.End()
		if err != nil {
			return nil, err
		}
	}
	return acc.results(), nil
}

// cellKey identifies the Voronoi cell of one feature of one set.
type cellKey struct {
	set int
	id  int64
}

// storedCell is a feature's Voronoi cell within its whole set and the
// cell's reach, its largest distance from the site: the cell lies in the
// disc of that radius around the site.
type storedCell struct {
	cell  geo.Polygon
	reach float64
}

// cellStore keeps every Voronoi cell an NN query of one engine has built,
// for every later query of that engine — the "special structure" Section
// 8.5 suggests for static data. The data an engine serves never changes:
// every publish, Flush, compaction swap, Rebuild and Open builds a new engine,
// with an empty store, so a cell cannot outlive the feature set it was cut
// from and nothing is ever invalidated. For the same reason the store
// holds at most one cell per feature of its generation and needs no
// capacity. The map is made at the first put, so an engine that serves no
// NN query pays a pointer for it. Safe for concurrent queries.
type cellStore struct {
	mu sync.RWMutex
	m  map[cellKey]storedCell
}

// get returns the stored cell of k; a hit allocates nothing.
func (s *cellStore) get(k cellKey) (storedCell, bool) {
	s.mu.RLock()
	c, ok := s.m[k]
	s.mu.RUnlock()
	return c, ok
}

// put stores c under k and returns what the store holds for k: the first
// put wins, so a cell two queries built at once is the same for both.
func (s *cellStore) put(k cellKey, c storedCell) storedCell {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.m[k]; ok {
		return old
	}
	if s.m == nil {
		s.m = make(map[cellKey]storedCell)
	}
	s.m[k] = c
	return c
}

// cellOf returns the stored cell of a concrete feature of set, building
// and storing it on a miss. A build is charged to the Voronoi counters (the
// striped bars of Figures 13–14) and runs under the voronoi.build span.
func (e *Engine) cellOf(set int, ref *featureRef, stats *Stats, tr *obs.Trace) (storedCell, error) {
	k := cellKey{set: set, id: ref.id}
	if c, ok := e.cells.get(k); ok {
		return c, nil
	}
	sp := tr.StartPhase("voronoi.build")
	start, before := time.Now(), e.snapshotReads()
	cell, err := e.voronoiCell(set, ref.id, ref.loc)
	stats.VoronoiCPUTime += time.Since(start)
	stats.VoronoiReads += e.snapshotReads().Sub(before).PhysicalReads
	sp.End()
	if err != nil {
		return storedCell{}, err
	}
	return e.cells.put(k, storedCell{cell: cell, reach: cell.MaxDist(ref.loc)}), nil
}

// comboRegion intersects the Voronoi cells of the combination's concrete
// features, read from the store. The region is cut between the two scratch
// region buffers and is valid until the next call.
func (e *Engine) comboRegion(comb combination, stats *Stats, tr *obs.Trace) (geo.Polygon, error) {
	w := e.scratchCellWork()
	w.region = append(w.region[:0], geo.UnitSquare().Vertices...)
	for i := range comb.refs {
		ref := &comb.refs[i]
		if ref.virtual {
			continue
		}
		c, err := e.cellOf(i, ref, stats, tr)
		if err != nil {
			return geo.Polygon{}, err
		}
		if geo.CutConvex(&w.region, &w.spare, c.cell); len(w.region) < 3 {
			return geo.Polygon{}, nil
		}
	}
	return geo.Polygon{Vertices: w.region}, nil
}

// nodeRef is a queued node of a feature group's trees: its page, its part
// and the squared MINDIST of its MBR from the site.
type nodeRef struct {
	dist2 float64
	page  storage.PageID
	part  int32
}

// voronoiCell computes the exact Voronoi cell of a feature within its
// feature set. Only nodes are queued, nearest first by MINDIST and across
// all parts of the group — so a cell computed on a sharded engine is the
// cell within the full (global) feature set — and a popped leaf's features
// are clipped where they lie, in stored order: the builder passes over each
// one too far to cut the cell (the 2·maxdist rule, which holds per neighbor
// because the cell only shrinks). A child at or beyond the reach is not
// queued, and the walk ends once the nearest queued node is: every feature
// has then been clipped or proven unable to cut. The pages read are among
// those a sweep over features in increasing distance reads: nodes pop in
// the same order, and by the time one is considered every feature the sweep
// would have clipped by then lies in a node already popped or ruled out, so
// the reach here is never the larger.
func (e *Engine) voronoiCell(set int, siteID int64, site geo.Point) (geo.Polygon, error) {
	g := e.features[set]
	w := e.scratchCellWork()
	b, h := &w.builder, &w.nodes
	b.Reset(site, geo.UnitSquare())
	*h = (*h)[:0]
	for pi, part := range g.Parts() {
		if part.Len() > 0 {
			heapPush(h, nodeRef{page: part.Tree().Root(), part: int32(pi)}, nodeBefore)
		}
	}
	for len(*h) > 0 {
		it := heapPop(h, nodeBefore)
		if it.dist2 >= b.Reach2() {
			break
		}
		v, err := g.Part(int(it.part)).Tree().View(it.page)
		if err != nil {
			return geo.Polygon{}, err
		}
		for i := 0; i < v.Len(); i++ {
			if v.Leaf() {
				if v.Visible(i) && v.ItemID(i) != siteID {
					b.Clip(v.Point(i))
				}
			} else if d2 := v.Rect(i).MinDist2(site); d2 < b.Reach2() {
				heapPush(h, nodeRef{dist2: d2, page: v.Child(i), part: it.part}, nodeBefore)
			}
		}
	}
	return b.Cell(), nil
}
