package core

import (
	"math"
	"math/bits"
	"slices"

	"stpq/internal/geo"
	"stpq/internal/obs"
)

// combination is a valid combination C = {t_1, ..., t_c} of feature
// objects (Definition 4) with its score s(C) = Σ s(t_i).
type combination struct {
	refs  []featureRef
	score float64
}

// combinationStream implements Algorithm 4 (nextCombination): it pulls
// feature objects from the per-set streams, forms combinations ordered by
// score, and emits a combination only when the thresholding scheme
// guarantees no unseen combination can score higher. τ is the largest bound
// any set j puts on the combinations it can still complete: an unseen
// feature of j below a queued entry e, with each other set o's best member
// e can pair with — unseen, at most U_o, or pulled —
//
//	κ(e) = ŝ(e) + Σ_{o≠j} max(U_o, N_o(e)),
//
// or, while j's ∅ is pending, 0 plus each other set's best, pulled or
// unseen. Under the variants without a pairwise distance rule every pulled
// feature is a partner (N_o(e) is set o's best), the streams run in score
// order, and τ is the paper's max over non-exhausted j of
// (max_1 + … + min_j + … + max_c), pulled by Definition 5. Under the range
// rule N_o(e) is the best o-feature within 2r of e's MBR, and each pull
// takes the set and the entry that attain τ (partner order, partnerQueue).
//
// Combinations are enumerated over the retrieved prefixes D_i as the
// paper's Algorithm 4 line 9 does: a pulled feature queues its
// combinations at once, except those the variant's rule discards —
// Definition 4's 2r filter for range, the cells rule for NN, the floor rule
// of extendBounded for influence.
type combinationStream struct {
	q       *Query
	e       *Engine // the session the query runs in: the cells rule reads its store
	streams []*featureStream
	stats   *Stats
	tr      *obs.Trace // nil when tracing is off

	// rule is the pairwise validity rule of the variant.
	rule comboRule
	// bounded marks the influence variant's stream, the one whose
	// generation applies the floor rule of extendBounded.
	bounded bool
	// floor is the score the consumer passed to the running next() call: no
	// object scoring strictly less can enter its top-k (−∞ while it cannot
	// say).
	floor float64

	// grids accelerate generation under a pairwise rule: one spatial
	// hash per feature set over the retrieved (concrete) features, so valid
	// partners of a new feature are found without scanning D_j. Under the
	// 2r rule the cells are 2r; under the cells rule a set's cells are
	// twice the reach of its first site. gridStore keeps the grids of
	// earlier queries for reuse; grids is nil when the stream does not use
	// them.
	grids     []*pairGrid
	gridStore []*pairGrid

	d [][]featureRef // retrieved features per set, in pull order
	// reach[i][a] is the reach of the Voronoi cell of d[i][a] (0 for ∅),
	// and maxReach[i] the largest of reach[i]; both filled under the cells
	// rule only.
	reach    [][]float64
	maxReach []float64
	// pc holds each set's U; partnered says the streams are in partner
	// order.
	pc        partnerCtx
	partnered bool
	best      []float64   // best score pulled from each set (0 before the first)
	voidAt    []int       // index of ∅ in d[i], −1 until it is pulled
	pending   [][]partner // pulled, not yet above their set's U: not partners yet
	started   []bool
	exhausted []bool // stream fully consumed, ∅ included

	heap comboHeap

	// refsBuf backs the refs slice of emitted combinations; each next()
	// call overwrites it, so callers must consume a combination before
	// requesting the next one (all STPS drivers do).
	refsBuf []featureRef

	// Generation's working state, kept between queries so that a pulled
	// feature costs no allocation: the index vector being built and the
	// arena the queued ones are cut from, the dimensions assigned so far
	// and, under the floor rule, the members assigned to them.
	vec     []int
	chosen  []int
	partial []featureRef
	arena   []int
	// near holds the cells rule's partner candidates, one run per
	// recursion depth above the last (extendNear).
	near []int32
}

// vecEntry is an index vector into the d arrays with its combination score.
type vecEntry struct {
	vec   []int
	score float64
}

// comboRule is the pairwise rule a variant's valid combinations obey.
type comboRule uint8

const (
	ruleNone  comboRule = iota // influence: any members (its floor rule is extendBounded's)
	rulePairs                  // range: members pairwise within 2r (Definition 4)
	ruleCells                  // NN: the members' Voronoi cells can meet pairwise
)

// ruleOf returns the pairwise rule of a variant over c feature sets. One
// set makes no pairs, so it has no rule: an NN query over one set builds a
// cell only when a combination's region needs it, not for every feature
// it pulls.
func ruleOf(v Variant, c int) comboRule {
	if c < 2 {
		return ruleNone
	}
	switch v {
	case RangeScore:
		return rulePairs
	case NearestNeighborScore:
		return ruleCells
	}
	return ruleNone
}

// newCombinationStream builds the stream for a query against the engine's
// feature indexes. On a pooled session the stream and all its growable
// state (per-set streams and their queues, retrieved prefixes, the
// combination heap, the pair grids and the index-vector arena) are recycled
// from the query scratch, so steady-state STPS queries rebuild the stream,
// and generate combinations, without allocating.
func newCombinationStream(e *Engine, q *Query, stats *Stats, tr *obs.Trace) *combinationStream {
	c := len(e.features)
	cs := &combinationStream{}
	if sc := e.scratch; sc != nil {
		cs = &sc.cs
	}
	cs.reinit(c)
	cs.q, cs.e, cs.stats, cs.tr = q, e, stats, tr
	cs.rule = ruleOf(q.Variant, c)
	cs.bounded = q.Variant == InfluenceScore
	cs.partnered = cs.rule == rulePairs
	cs.grids = nil
	if cs.rule != ruleNone {
		// The cells rule re-sizes a set's grid at its first site
		// (generate).
		cs.gridStore = reuseLen(cs.gridStore, c)
		for i, g := range cs.gridStore {
			if g == nil {
				cs.gridStore[i] = newPairGrid(2 * q.Radius)
			} else {
				g.reset(2 * q.Radius)
			}
		}
		cs.grids = cs.gridStore
	}
	cs.pc.reach = 2 * q.Radius * (1 + 1e-8)
	cs.pc.reach2 = cs.pc.reach * cs.pc.reach
	for i := 0; i < c; i++ {
		cs.streams[i].init(e.features[i], q.keywordsFor(i), lens{}, stats)
		if cs.partnered {
			cs.streams[i].partner(&cs.pc, i)
		}
		cs.pc.u[i] = 1 // upper bound on any unseen feature score
	}
	return cs
}

// reinit resets the stream's per-query state in place, keeping every
// backing allocation (stream structs with their heaps, inner d slices,
// the heap array) for reuse.
func (cs *combinationStream) reinit(c int) {
	cs.streams = reuseLen(cs.streams, c)
	for i := range cs.streams {
		if cs.streams[i] == nil {
			cs.streams[i] = &featureStream{}
		}
	}
	cs.d = reuseNested(cs.d, c)
	cs.reach = reuseNested(cs.reach, c)
	cs.maxReach = reuseLen(cs.maxReach, c)
	clear(cs.maxReach)
	cs.pc.u = reuseLen(cs.pc.u, c)
	cs.pc.partners = reuseNested(cs.pc.partners, c)
	cs.pending = reuseNested(cs.pending, c)
	cs.best = reuseLen(cs.best, c)
	clear(cs.best)
	cs.voidAt = reuseLen(cs.voidAt, c)
	cs.started = reuseLen(cs.started, c)
	cs.exhausted = reuseLen(cs.exhausted, c)
	for i := 0; i < c; i++ {
		cs.voidAt[i] = -1
		cs.started[i] = false
		cs.exhausted[i] = false
	}
	cs.floor = negInf
	cs.heap = cs.heap[:0]
	cs.vec = reuseLen(cs.vec, c)
	cs.chosen = cs.chosen[:0]
	cs.arena = cs.arena[:0]
}

// reuseLen returns buf resized to n, reusing its backing array when large
// enough; existing elements within the new length are kept as-is.
func reuseLen[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	nb := make([]T, n)
	copy(nb, buf)
	return nb
}

// reuseNested resizes an outer slice to n, truncating every inner slice to
// length 0 while keeping its capacity.
func reuseNested[T any](buf [][]T, n int) [][]T {
	buf = reuseLen(buf, n)
	for i := range buf {
		buf[i] = buf[i][:0]
	}
	return buf
}

// pairGrid is a spatial hash of square cells. Under the 2r rule the cell
// size is the pair-distance limit 2r: any point within 2r of p lies in one
// of the 3×3 cells around p's cell. Under the cells rule it is sized by
// the data, and a partner is looked for in the cells covering a square
// around the anchor (extendNear). The occupied cells sit in a flat
// open-addressed table — packed cell key, multiplicative hash, linear
// probing — and the members of a cell form a chain through next, in the
// order they were added, so the grid owns two allocations however many
// cells it has (the table is replaced only when it grows), and reset keeps
// both for the next query.
type pairGrid struct {
	cell float64
	// slots has a power-of-two length and is kept at most half full; used
	// counts its occupied slots.
	slots []gridSlot
	used  int
	shift uint // 64 − log2(len(slots)): the hash keeps the top bits
	// next[idx] is the index added to idx's cell after idx, -1 for the
	// cell's last.
	next []int32
}

// gridSlot is one occupied cell of the table: its packed key and its
// chain's first and last index. The first is stored plus one, so that the
// zero slot — what clear leaves — is empty.
type gridSlot struct {
	key   uint64
	head1 int32
	tail  int32
}

// minGridSlots is the table a new grid starts with.
const minGridSlots = 64

func newPairGrid(cell float64) *pairGrid {
	g := &pairGrid{}
	g.resize(minGridSlots)
	g.reset(cell)
	return g
}

// reset empties the grid and sets its cell size.
func (g *pairGrid) reset(cell float64) {
	if cell <= 0 {
		cell = 1
	}
	g.cell = cell
	clear(g.slots)
	g.used = 0
	g.next = g.next[:0]
}

// key maps a point to its cell. A cell index is taken modulo 2³² — through
// int64, which holds any index the coordinates of a query can give — so the
// ±1 of a neighbourhood wraps with it, and a cell past 2³¹ still has its
// neighbours around it.
func (g *pairGrid) key(p geo.Point) [2]int32 {
	return [2]int32{int32(int64(math.Floor(p.X / g.cell))), int32(int64(math.Floor(p.Y / g.cell)))}
}

// pack makes one table key of a cell.
func pack(k [2]int32) uint64 { return uint64(uint32(k[0]))<<32 | uint64(uint32(k[1])) }

// find returns the slot of key, or the empty slot where it belongs.
func (g *pairGrid) find(key uint64) *gridSlot {
	mask := len(g.slots) - 1
	for i := int((key * 0x9e3779b97f4a7c15) >> g.shift); ; i = (i + 1) & mask {
		if s := &g.slots[i]; s.head1 == 0 || s.key == key {
			return s
		}
	}
}

// resize replaces the table by an empty one of n slots, a power of two, and
// moves the occupied slots of the old one into it.
func (g *pairGrid) resize(n int) {
	old := g.slots
	g.slots = make([]gridSlot, n)
	g.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for _, s := range old {
		if s.head1 != 0 {
			*g.find(s.key) = s
		}
	}
}

// add registers the next index at point p. Indexes are 0, 1, 2, … in the
// order of the calls: the positions of the concrete features in D_i.
func (g *pairGrid) add(p geo.Point) {
	idx := int32(len(g.next))
	g.next = append(g.next, -1)
	key := pack(g.key(p))
	s := g.find(key)
	if s.head1 != 0 {
		g.next[s.tail] = idx
		s.tail = idx
		return
	}
	*s = gridSlot{key: key, head1: idx + 1, tail: idx}
	if g.used++; 2*g.used > len(g.slots) {
		g.resize(2 * len(g.slots))
	}
}

// skip takes the next index without placing it in a cell: the position of
// ∅, which partner order can pull before concrete features of its set.
func (g *pairGrid) skip() { g.next = append(g.next, -1) }

// first returns the first index of cell k, or -1 for an empty cell; next
// continues the chain.
func (g *pairGrid) first(k [2]int32) int32 {
	return g.find(pack(k)).head1 - 1
}

// next returns the valid combination with the highest score not yet
// emitted, or ok=false when the combination space is exhausted — or when
// nothing left in it, queued or unseen, scores floor or more: the consumer
// would stop at whatever came next, so no feature is pulled to find it.
func (cs *combinationStream) next(floor float64) (combination, bool, error) {
	cs.floor = floor
	for {
		if cs.allExhausted() {
			if cs.heap.Len() == 0 {
				return combination{}, false, nil
			}
			cs.stats.Combinations++
			return cs.materialize(cs.heap.pop()), true, nil
		}
		tau, i, from := cs.attain()
		if cs.heap.Len() > 0 && cs.heap[0].score >= tau-1e-12 {
			cs.stats.Combinations++
			return cs.materialize(cs.heap.pop()), true, nil
		}
		// τ is rounded as the emission test above allows for: an unseen
		// combination may tie the floor while τ comes out just below it.
		if floor > negInf && tau < floor-1e-12 && (cs.heap.Len() == 0 || cs.heap[0].score < floor) {
			return combination{}, false, nil
		}
		if err := cs.pullFrom(i, from); err != nil {
			return combination{}, false, err
		}
	}
}

// allExhausted reports whether every per-set stream is done.
func (cs *combinationStream) allExhausted() bool {
	for _, ex := range cs.exhausted {
		if !ex {
			return false
		}
	}
	return true
}

// attain returns τ, the largest τ_j over the sets not exhausted, with the
// set the next pull takes — by Definition 5 — and the order it takes its
// entry from. Before every set has been accessed once Definition 5 fills
// the gaps, which also reads every part's root before partner order first
// compares two sets: a set's roots are queued at +∞, so its first yield
// comes after all of them. Afterwards the pull goes to the set attaining τ.
// Under partner order every set's bound order prices its top at the same
// Σ_o U_o: of the sets tying there, the one whose top bounds the most goes
// first.
func (cs *combinationStream) attain() (tau float64, set int, from pullFrom) {
	sumP, sumA := cs.sums()
	tau, set, gap := negInf, -1, -1
	for j := range cs.streams {
		if cs.exhausted[j] {
			continue
		}
		t, f := cs.setBound(j, sumP, sumA)
		if gap < 0 && !cs.started[j] {
			gap, set, from = j, j, f
		}
		if t > tau || t == tau && cs.partnered && gap < 0 && set >= 0 && cs.pc.u[j] > cs.pc.u[set] {
			tau = t
			if gap < 0 {
				set, from = j, f
			}
		}
	}
	return tau, set, from
}

// sums returns Σ_o of what an entry with no near partner can pair with in
// each set o (max(U_o, best_o) where every pulled feature is a partner,
// U_o under partner order), and Σ_o max(U_o, best_o): the best each set
// can put into a combination, pulled or unseen.
func (cs *combinationStream) sums() (sumP, sumA float64) {
	for o, u := range cs.pc.u {
		a := max(u, cs.best[o])
		sumA += a
		if cs.partnered {
			sumP += u
		} else {
			sumP += a
		}
	}
	return sumP, sumA
}

// setBound returns τ_j, the best score of a combination completed by what
// set j has not yielded, and the order the entry attaining it is in. The
// bound order's top pairs with the best of each other set, U_j in place of
// its own; partner order adds the near order's top, and ∅ while it is
// pending, which partner order yields as soon as it attains τ_j (in score
// order it never outscores the bound order's top, and comes last).
func (cs *combinationStream) setBound(j int, sumP, sumA float64) (float64, pullFrom) {
	u, s := cs.pc.u[j], cs.streams[j]
	if !cs.partnered {
		return sumP - max(u, cs.best[j]) + u, fromBound
	}
	t, from := sumP, fromBound
	if k := s.pq.nearTop(); k > t {
		t, from = k, fromNear
	}
	if !s.exhausted {
		if v := sumA - max(u, cs.best[j]); v > t {
			t, from = v, fromVoid
		}
	}
	return t, from
}

// pullFrom takes one step of set i's stream from the order named — under
// partner order it may expand a page and pull nothing; in score order it
// runs to the next yield, as no step before it moves τ — updates the
// bookkeeping and feeds the combination heap.
func (cs *combinationStream) pullFrom(i int, from pullFrom) error {
	sp := cs.tr.StartPhase("features.pull")
	var (
		ref       featureRef
		got, done bool
		err       error
	)
	if cs.partnered {
		ref, got, done, err = cs.streams[i].step(from)
	} else {
		ref, done, err = cs.streams[i].next()
		got = !done
	}
	sp.End()
	if err != nil {
		return err
	}
	if done {
		cs.exhausted[i] = true
		return nil
	}
	if got {
		if err := cs.add(i, ref); err != nil {
			return err
		}
	}
	if cs.partnered {
		cs.settle(i)
	}
	return nil
}

// add files a feature (or ∅) pulled from set i and queues its
// combinations.
func (cs *combinationStream) add(i int, ref featureRef) error {
	cs.stats.FeaturesPulled++
	cs.d[i] = append(cs.d[i], ref)
	if cs.rule == ruleCells {
		// The cell decides which combinations the feature can be in, so it
		// is looked up (or built) now, once per pulled feature.
		reach := 0.0
		if !ref.virtual {
			c, err := cs.e.cellOf(i, &cs.d[i][len(cs.d[i])-1], cs.stats, cs.tr)
			if err != nil {
				return err
			}
			reach = c.reach
		}
		cs.reach[i] = append(cs.reach[i], reach)
		cs.maxReach[i] = max(cs.maxReach[i], reach)
	}
	cs.started[i] = true
	cs.best[i] = max(cs.best[i], ref.score)
	if ref.virtual {
		cs.voidAt[i] = len(cs.d[i]) - 1
	} else if cs.partnered {
		cs.pending[i] = append(cs.pending[i], partner{loc: ref.loc, score: ref.score, set: i})
	}
	if !cs.partnered {
		// A stream in score order yields nothing above its last yield.
		cs.pc.u[i] = ref.score
	}
	cs.exhausted[i] = cs.streams[i].spent()
	cs.generate(i)
	return nil
}

// settle lowers U_i to what set i's stream still holds after a step and
// joins every pulled feature of i that now outscores it to the partners,
// raising N_i of each entry within 2r of it in the other sets. Both happen
// before τ is next computed: a lower U_i with a feature that outscores it
// not yet joined would understate the κ of every entry near it. A set with
// nothing left queued has U_i = 0.
func (cs *combinationStream) settle(i int) {
	s := cs.streams[i]
	u := min(cs.pc.u[i], s.bound())
	cs.pc.u[i] = u
	pend := cs.pending[i][:0]
	for _, p := range cs.pending[i] {
		if p.score <= u {
			pend = append(pend, p)
			continue
		}
		cs.pc.partners[i] = append(cs.pc.partners[i], p)
		for o, t := range cs.streams {
			if o != i {
				t.pq.raise(&p)
			}
		}
	}
	cs.pending[i] = pend
	cs.exhausted[i] = s.spent()
}

// pushVec scores and pushes an index vector. The score sums the members in
// set order, as BruteForce sums an object's τ_i, so the stream and the
// oracle agree to the bit however many sets there are.
func (cs *combinationStream) pushVec(vec []int) {
	score := 0.0
	for i, a := range vec {
		score += cs.d[i][a].score
	}
	cs.heap.push(vecEntry{vec: vec, score: score})
}

// generate materializes, as the paper's Algorithm 4 line 9 does, all
// combinations that include the newest feature of set i, discarding
// invalid ones immediately. Once a concrete feature is part of the
// partial combination, candidates for the remaining sets come from the
// spatial grid around it — every member of a valid combination lies within
// 2r of every other, or under the cells rule within the two reaches — so
// generation cost tracks the number of valid combinations rather than
// |D_1|×…×|D_c|.
func (cs *combinationStream) generate(i int) {
	newIdx := len(cs.d[i]) - 1
	newRef := &cs.d[i][newIdx]
	if cs.grids != nil && !newRef.virtual {
		if cs.rule == ruleCells && newIdx == 0 {
			// The set's first site sizes its cells: the data, not a
			// setting, says how far apart its sites are.
			cs.grids[i].reset(2 * cs.reach[i][0])
		}
		cs.grids[i].add(newRef.loc)
	} else if cs.grids != nil {
		cs.grids[i].skip()
	}
	cs.vec[i] = newIdx
	cs.chosen = append(cs.chosen[:0], i)
	cs.partial = append(cs.partial[:0], *newRef)
	cs.extend(i, 0, newRef.score, newRef.loc, !newRef.virtual)
}

// extend assigns dimensions dim… of cs.vec in every valid way and queues
// each completed index vector; dimension fixed holds the newest feature
// and is skipped. score is the sum of the members chosen so far, for the
// floor rule; anchor is the location of the first concrete member chosen
// so far, if anchored.
func (cs *combinationStream) extend(fixed, dim int, score float64, anchor geo.Point, anchored bool) {
	if dim == len(cs.d) {
		cs.pushVec(cs.keepVec())
		return
	}
	if dim == fixed {
		cs.extend(fixed, dim+1, score, anchor, anchored)
		return
	}
	if anchored && cs.grids != nil && cs.rule == ruleCells && cs.extendNear(fixed, dim, score, anchor) {
		return
	}
	if anchored && cs.grids != nil && cs.rule == rulePairs {
		// Cells around the anchor in a fixed order, each in insertion
		// order: the order combinations are queued in decides ties.
		g := cs.grids[dim]
		k := g.key(anchor)
		for dx := int32(-1); dx <= 1; dx++ {
			for dy := int32(-1); dy <= 1; dy++ {
				for a := g.first([2]int32{k[0] + dx, k[1] + dy}); a >= 0; a = g.next[a] {
					cs.try(fixed, dim, int(a), score, anchor, anchored)
				}
			}
		}
		// The virtual feature, if pulled, pairs with anything.
		if v := cs.voidAt[dim]; v >= 0 {
			cs.try(fixed, dim, v, score, anchor, anchored)
		}
		return
	}
	if cs.bounded && cs.floor > negInf {
		cs.extendBounded(fixed, dim, score)
		return
	}
	for a := 0; a < len(cs.d[dim]); a++ {
		cs.try(fixed, dim, a, score, anchor, anchored)
	}
}

// extendNear is extend's loop under the cells rule once a concrete anchor
// is chosen. Only a member of D_dim within reach + maxReach[dim] of the
// anchor can pass the rule against it, where reach is the anchor's: that of
// the first concrete member chosen. So the candidates are the grid's
// members in the cells covering that square, tried in ascending index and
// ∅ last: the order the linear scan reaches the valid ones in, so the
// combinations are queued — and ties broken — as it would queue them. It
// reports false, having tried nothing, when the square spans more cells
// than D_dim has members: the scan is then the cheaper way. The square is
// widened by a relative 1e-9 so that rounding cannot put a valid partner's
// cell outside it.
func (cs *combinationStream) extendNear(fixed, dim int, score float64, anchor geo.Point) bool {
	reach := 0.0
	for _, j := range cs.chosen {
		if b := cs.vec[j]; !cs.d[j][b].virtual {
			reach = cs.reach[j][b]
			break
		}
	}
	g, n := cs.grids[dim], len(cs.d[dim])
	w := reach + cs.maxReach[dim]
	w += 1e-9 * (w + math.Abs(anchor.X) + math.Abs(anchor.Y))
	x0, x1 := math.Floor((anchor.X-w)/g.cell), math.Floor((anchor.X+w)/g.cell)
	y0, y1 := math.Floor((anchor.Y-w)/g.cell), math.Floor((anchor.Y+w)/g.cell)
	if (x1-x0+1)*(y1-y0+1) > float64(n) {
		return false
	}
	base := len(cs.near)
	for x := int64(x0); x <= int64(x1); x++ {
		for y := int64(y0); y <= int64(y1); y++ {
			for a := g.first([2]int32{int32(x), int32(y)}); a >= 0; a = g.next[a] {
				cs.near = append(cs.near, a)
			}
		}
	}
	end := len(cs.near)
	slices.Sort(cs.near[base:end])
	// Deeper levels append their runs past end and cut them off again.
	for k := base; k < end; k++ {
		cs.try(fixed, dim, int(cs.near[k]), score, anchor, true)
	}
	cs.near = cs.near[:base]
	if v := cs.voidAt[dim]; v >= 0 {
		cs.try(fixed, dim, v, score, anchor, true)
	}
	return true
}

// extendBounded is extend's loop under the influence variant's rule: a
// partial combination is extended only while influenceBound of its members
// plus the top score of every set still to be assigned reaches the floor —
// no location collects more than that from any completion of it. D_dim is
// score-descending, so the scan stops at the first partner whose whole
// score, on top of the bound so far, falls short, and partners beyond
// pairReach of the pulled feature are passed over before their bound is
// computed. The floor only rises: what is discarded here the consumer
// would have skipped when it arrived.
func (cs *combinationStream) extendBounded(fixed, dim int, score float64) {
	rest := 0.0
	for j := dim + 1; j < len(cs.d); j++ {
		if j != fixed {
			rest += cs.best[j]
		}
	}
	u := &cs.partial[0]
	reach := pairReach(u, cs.best[dim], cs.floor-(score-u.score+rest), cs.q.Radius)
	sofar := influenceBound(cs.partial, cs.q.Radius)
	for a := range cs.d[dim] {
		ref := &cs.d[dim][a]
		if sofar+ref.score+rest < cs.floor {
			break
		}
		if !ref.virtual && u.loc.Dist2(ref.loc) > reach {
			continue
		}
		cs.vec[dim] = a
		cs.partial = append(cs.partial, *ref)
		if influenceBound(cs.partial, cs.q.Radius)+rest >= cs.floor {
			cs.extend(fixed, dim+1, score+ref.score, geo.Point{}, false)
		}
		cs.partial = cs.partial[:len(cs.partial)-1]
	}
}

// pairReach returns the squared distance from u within which a feature
// scoring at most top can lie if the two are to collect floor between them:
// the pair bound of influenceBound, max(s_u,s_v) + min(s_u,s_v)·D_uv, rises
// with s_v, so it needs D_uv ≥ (floor − max(s_u,top)) / min(s_u,top). One
// logarithm per pulled feature in place of one exponential per partner; the
// margin keeps its rounding on the side of the exact test that follows.
func pairReach(u *featureRef, top, floor, r float64) float64 {
	if u.virtual {
		return math.Inf(1)
	}
	need := (floor - max(u.score, top)) / min(u.score, top)
	if !(need > 0) { // also NaN, from 0/0: no cutoff
		return math.Inf(1)
	}
	if need > 1 {
		return -1
	}
	d := -r * math.Log2(need) * (1 + 1e-9)
	return d * d
}

// try puts feature a of set dim into the partial combination and, if it
// lies within reach of the members chosen so far, extends it further.
func (cs *combinationStream) try(fixed, dim, a int, score float64, anchor geo.Point, anchored bool) {
	ref := &cs.d[dim][a]
	cs.vec[dim] = a
	if cs.validAgainstChosen(dim, a) {
		if !anchored && !ref.virtual {
			anchor, anchored = ref.loc, true
		}
		cs.chosen = append(cs.chosen, dim)
		cs.extend(fixed, dim+1, score+ref.score, anchor, anchored)
		cs.chosen = cs.chosen[:len(cs.chosen)-1]
	}
}

// keepVec returns a copy of cs.vec cut from the arena. A full arena is
// replaced by one twice its size; the vectors already queued keep the old
// one alive for as long as they are.
func (cs *combinationStream) keepVec() []int {
	c := len(cs.vec)
	if len(cs.arena)+c > cap(cs.arena) {
		cs.arena = make([]int, 0, max(2*cap(cs.arena), 64*c))
	}
	n := len(cs.arena)
	cs.arena = append(cs.arena, cs.vec...)
	return cs.arena[n : n+c : n+c]
}

// validAgainstChosen checks the variant's pairwise rule for member a of
// set dim against the member cs.vec[j] of every chosen set j. The virtual
// feature obeys it with everything: it is at distance 0 from every point,
// and its cell is the whole space.
func (cs *combinationStream) validAgainstChosen(dim, a int) bool {
	u := &cs.d[dim][a]
	if cs.rule == ruleNone || u.virtual {
		return true
	}
	for _, j := range cs.chosen {
		b := cs.vec[j]
		v := &cs.d[j][b]
		if v.virtual {
			continue
		}
		if cs.rule == rulePairs {
			if u.loc.Dist(v.loc) > 2*cs.q.Radius {
				return false
			}
		} else if r := cs.reach[dim][a] + cs.reach[j][b]; u.loc.Dist2(v.loc) > r*r {
			// Each cell lies in the disc of its reach around its site: sites
			// farther apart than the two reaches have disjoint cells, so no
			// object has both as its nearest features.
			return false
		}
	}
	return true
}

// materialize converts a queued index vector into a combination; the
// variant's rule was applied when the vector was generated.
func (cs *combinationStream) materialize(ve vecEntry) combination {
	refs := cs.refsBuf[:0]
	for i, a := range ve.vec {
		refs = append(refs, cs.d[i][a])
	}
	cs.refsBuf = refs
	return combination{refs: refs, score: ve.score}
}

// comboHeap is a max-heap of index vectors by combination score.
type comboHeap []vecEntry

func (h comboHeap) Len() int { return len(h) }
