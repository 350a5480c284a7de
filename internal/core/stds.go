package core

import (
	"time"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/obs"
	"stpq/internal/rtree"
)

// STDS executes the Spatio-Textual Data Scan baseline (paper Section 5,
// Algorithms 1 and 2): it scans the data objects, computes each object's
// spatio-textual score against every feature set, and keeps the k best.
// The upper bound τ̂(p) — computed scores plus 1 per unknown set — skips
// remaining score computations for hopeless objects, and with
// Options.BatchSTDS (default in the experiments) objects are processed one
// object-tree leaf at a time so that a whole batch shares each
// feature-index traversal ("Performance improvements" paragraph).
func (e *Engine) STDS(q Query) ([]Result, Stats, error) {
	if err := q.Validate(len(e.features)); err != nil {
		return nil, Stats{}, err
	}
	root := e
	e = e.session() // private read accounting; safe under concurrency
	defer root.releaseSession(e)
	var stats Stats
	before := e.snapshotReads()
	tr := e.newTrace("stds."+q.Variant.String(), &q)
	start := time.Now()
	var (
		results []Result
		err     error
	)
	if q.Variant == RangeScore && e.opts.BatchSTDS {
		results, err = e.stdsBatch(&q, &stats, tr)
	} else {
		results, err = e.stdsSingle(&q, &stats, tr)
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

// betterResult is the total order on results used everywhere: score
// descending, ties broken by ascending id. Making membership in the top-k
// a pure function of the scored object set (instead of scan order) is what
// makes the answer independent of how the objects are laid out in parts,
// and lets the cluster coordinator merge per-node answers into a
// byte-identical global answer.
func betterResult(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// ResultBefore exposes the result total order (score descending, ties by
// ascending id) to callers that compare or merge answers.
func ResultBefore(a, b Result) bool { return betterResult(a, b) }

// topkAccumulator keeps the k best objects under betterResult and the
// running threshold τ (the k-th best score so far, Algorithm 1 line 9).
type topkAccumulator struct {
	k    int
	heap resultMinHeap
}

func newTopkAccumulator(k int) *topkAccumulator { return &topkAccumulator{k: k} }

// full reports whether k objects have been accepted.
func (a *topkAccumulator) full() bool { return a.heap.Len() >= a.k }

// threshold returns τ: the k-th best score, or −∞ while fewer than k
// objects have been accepted. Objects scoring exactly τ can still enter
// the top-k by winning the id tie-break, so callers must prune only
// strictly below τ.
func (a *topkAccumulator) threshold() float64 {
	if a.heap.Len() < a.k {
		return negInf
	}
	return a.heap[0].Score
}

// offer considers one scored object.
func (a *topkAccumulator) offer(r Result) {
	if a.heap.Len() < a.k {
		a.heap.push(r)
		return
	}
	if betterResult(r, a.heap[0]) {
		a.heap[0] = r
		a.heap.fixTop()
	}
}

// results drains the accumulator.
func (a *topkAccumulator) results() []Result {
	out := make([]Result, a.heap.Len())
	copy(out, a.heap)
	sortResults(out)
	return out
}

// resultMinHeap keeps the worst kept result (under betterResult) at the
// root, so the accumulator evicts it first.
type resultMinHeap []Result

func (h resultMinHeap) Len() int { return len(h) }

// stdsSingle is the literal Algorithm 1: one object at a time, one
// computeScore (Algorithm 2) call per feature set, with the τ̂ early
// termination between sets.
func (e *Engine) stdsSingle(q *Query, stats *Stats, tr *obs.Trace) ([]Result, error) {
	acc := e.newTopk(q.K)
	c := len(e.features)
	sp := tr.StartPhase("objects.scan")
	objs, err := e.allObjects()
	sp.End()
	if err != nil {
		return nil, err
	}
	for oi := range objs {
		obj := &objs[oi]
		stats.ObjectsScored++
		sum := 0.0
		complete := true
		for i := 0; i < c; i++ {
			// τ̂(p): known scores plus the maximum 1 per unknown set. Prune
			// only strictly below τ — an object tying the k-th score can
			// still win the id tie-break.
			if acc.full() && sum+float64(c-i) < acc.threshold() {
				complete = false
				break
			}
			sp := tr.StartPhase("index.descend")
			ti, err := e.computeScore(i, q, obj.Point())
			sp.End()
			if err != nil {
				return nil, err
			}
			sum += ti
		}
		if complete {
			acc.offer(Result{ID: obj.ItemID, Location: obj.Point(), Score: sum})
		}
	}
	return acc.results(), nil
}

// allObjects returns every data object, part after part (the sequential
// scan STDS starts from).
func (e *Engine) allObjects() ([]rtree.Entry, error) {
	var objs []rtree.Entry
	for pi, part := range e.objects {
		e.markProbed(pi)
		all, err := part.Tree().All()
		if err != nil {
			return nil, err
		}
		if objs == nil {
			objs = all
		} else {
			objs = append(objs, all...)
		}
	}
	return objs, nil
}

// computeScore is Algorithm 2 for one object: the group's feature stream
// seen through the lens of p. Best-first by ŝ(e), expanding only entries
// within range and with positive textual similarity, the first in-range
// feature it emits has the maximum preference score. The influence variant
// (Definition 6) is the same walk under a lens that drops the range
// predicate and weights every bound and score by 2^(−dist/r) — with MINDIST
// for a node, so the first emission still dominates all bounds left in the
// heap. ∅ scores 0: no relevant feature is in reach. NN orders by distance,
// not score, and has its own walk.
func (e *Engine) computeScore(set int, q *Query, p pointArg) (float64, error) {
	l := lens{kind: lensRange, p: p, r: q.Radius}
	switch q.Variant {
	case InfluenceScore:
		l.kind = lensInfluence
	case NearestNeighborScore:
		return e.computeNNScore(set, q, p)
	}
	s := &e.scratch.stds
	if err := s.init(e.features[set], q.keywordsFor(set), l); err != nil {
		return 0, err
	}
	ref, _, err := s.next()
	return ref.score, err
}

// computeNNScore adapts Algorithm 2 to Definition 7: entries are
// prioritized by minimum distance (no textual pruning — the nearest
// neighbor is defined over the whole feature set), and the first feature
// popped is p's NN; its score counts only if it is textually relevant.
func (e *Engine) computeNNScore(set int, q *Query, p pointArg) (float64, error) {
	g := e.features[set]
	qk := q.keywordsFor(set)
	if g.Len() == 0 || qk.Set.IsEmpty() {
		return 0, nil
	}
	var score float64
	err := e.groupAscendDistance(g, p, func(en *rtree.Entry, _ float64) bool {
		// The first popped leaf is the nearest neighbor; its score counts
		// only if it is relevant.
		if qk.Relevant(en) {
			score = qk.Score(en)
		}
		return false
	})
	return score, err
}

// groupAscendDistance streams a feature group's leaf entries in increasing
// distance from center, merging the group's part trees through one shared
// boundHeap on −MINDIST, the multi-tree analogue of rtree.AscendDistance
// (negation is exact, and −a > −b exactly when a < b, zeros included). fn
// sees each leaf as an entry rebuilt from its queued candidate and side
// slot, valid for the duration of the call. For
// the NN variant on a sharded engine this is the cross-border rule: a part's
// candidate leaf is popped — and thus final — only once its distance beats
// the mindist of every unread subtree of every other part.
func (e *Engine) groupAscendDistance(g *index.FeatureGroup, center geo.Point, fn func(en *rtree.Entry, d float64) bool) error {
	h, rests, arena := e.scratchDistHeap()
	for pi, part := range g.Parts() {
		if part.Len() == 0 {
			continue
		}
		root, err := part.Tree().RootEntry()
		if err != nil {
			return err
		}
		h.push(candidateOf(&root, pi, -root.Rect.MinDist(center), rests))
	}
	var c rtree.Entry
	for h.Len() > 0 {
		it := h.pop()
		if it.isLeaf() {
			leaf := it.leafEntry(*rests)
			if !fn(&leaf, -it.prio) {
				return nil
			}
			continue
		}
		v, err := g.Part(int(it.part)).Tree().View(it.child())
		if err != nil {
			return err
		}
		for i := 0; i < v.Len(); i++ {
			if !v.Leaf() {
				rect := v.Rect(i)
				h.push(slotCandidate(&v, i, int(it.part), -rect.MinDist(center)))
			} else if v.Entry(i, &c, arena) {
				// A queued leaf keeps its words on the arena until the walk
				// ends.
				h.push(candidateOf(&c, int(it.part), -c.Rect.MinDist(center), rests))
			}
		}
	}
	return nil
}

// pointArg aliases geo.Point to keep the compute-score signatures compact.
type pointArg = geo.Point
