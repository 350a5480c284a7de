package core

import (
	"stpq/internal/geo"
	"stpq/internal/obs"
	"stpq/internal/rtree"
)

// stdsBatch is the improved STDS of Section 5 ("Performance
// improvements"): instead of one feature-index traversal per data object,
// a whole batch of objects — one leaf page of the object R-tree, which is
// spatially coherent — shares a single best-first traversal per feature
// set. An index entry is expanded if it is within range of at least one
// unresolved object of the batch; when a feature object is popped, every
// batch object within distance r takes its score (the maximum, because
// features arrive in non-increasing s(t)) and leaves the batch.
func (e *Engine) stdsBatch(q *Query, stats *Stats, tr *obs.Trace) ([]Result, error) {
	acc := e.newTopk(q.K)
	c := len(e.features)
	var walkErr error
	scoreLeaf := func(batch []rtree.Entry) bool {
		objs := e.scratchBatch(len(batch))
		for i := range batch {
			objs[i].id, objs[i].loc = batch[i].ItemID, batch[i].Rect.Min
			stats.ObjectsScored++
		}
		active := objs
		for set := 0; set < c && len(active) > 0; set++ {
			sp := tr.StartPhase("index.descend")
			err := e.batchRangeScores(set, q, active)
			sp.End()
			if err != nil {
				walkErr = err
				return false
			}
			// τ̂ pruning between feature sets (Algorithm 1 line 6): drop
			// objects whose best possible total is strictly below the
			// current threshold (a tie can still win the id tie-break).
			if !acc.full() {
				continue
			}
			tau := acc.threshold()
			remaining := float64(c - set - 1)
			kept := active[:0]
			for _, o := range active {
				if o.sum+remaining >= tau {
					kept = append(kept, o)
				}
			}
			active = kept
		}
		for _, o := range active {
			acc.offer(Result{ID: o.id, Location: o.loc, Score: o.sum})
		}
		return true
	}
	for pi, part := range e.objects {
		e.markProbed(pi)
		if err := part.Tree().Leaves(scoreLeaf); err != nil {
			return nil, err
		}
		if walkErr != nil {
			return nil, walkErr
		}
	}
	return acc.results(), nil
}

// batchObj tracks one data object — copied out of the shared leaf node —
// through the per-set score computations.
type batchObj struct {
	id       int64
	loc      geo.Point
	sum      float64
	resolved bool // score for the current feature set found
}

// batchRangeScores runs the batched Algorithm 2 for one feature set,
// adding each object's τ_i(p) to its running sum.
func (e *Engine) batchRangeScores(set int, q *Query, batch []*batchObj) error {
	g := e.features[set]
	qk := q.keywordsFor(set)
	if g.Len() == 0 || qk.Set.IsEmpty() {
		return nil // every τ_i is 0
	}
	prepared := g.Prepare(qk)
	for _, o := range batch {
		o.resolved = false
	}
	unresolved := len(batch)
	withinAny := func(rect *geo.Rect) bool {
		for _, o := range batch {
			if o.resolved {
				continue
			}
			if rect.MinDist(o.loc) <= q.Radius {
				return true
			}
		}
		return false
	}
	assign := func(fp geo.Point, score float64) {
		for _, o := range batch {
			if o.resolved {
				continue
			}
			if o.loc.Dist(fp) <= q.Radius {
				o.sum += score
				o.resolved = true
				unresolved--
			}
		}
	}
	pq := e.scratchBoundHeap()
	for pi, part := range g.Parts() {
		if part.Len() == 0 {
			continue
		}
		root, err := part.Tree().RootEntry()
		if err != nil {
			return err
		}
		if part.EntryRelevant(&root, &prepared) && withinAny(&root.Rect) {
			pq.push(candidateOf(&root, pi, part.EntryBound(&root, &prepared)))
		}
	}
	for pq.Len() > 0 && unresolved > 0 {
		it := pq.pop()
		idx := g.Part(int(it.part))
		if it.leaf {
			if it.resolved {
				assign(it.loc, it.prio)
				continue
			}
			leaf := it.leafEntry()
			if !withinAny(&leaf.Rect) {
				continue // no candidate object: skip the verification read
			}
			score, relevant, err := idx.ResolveLeaf(&leaf, &prepared)
			if err != nil {
				return err
			}
			if !relevant {
				continue
			}
			if pq.Len() == 0 || score >= (*pq)[0].prio-1e-12 {
				assign(it.loc, score)
			} else {
				it.prio, it.resolved = score, true
				pq.push(it)
			}
			continue
		}
		n, err := idx.Tree().Node(it.child())
		if err != nil {
			return err
		}
		for i := range n.Entries {
			child := &n.Entries[i]
			if !idx.EntryRelevant(child, &prepared) {
				continue
			}
			if !withinAny(&child.Rect) {
				continue
			}
			pq.push(candidateOf(child, int(it.part), idx.EntryBound(child, &prepared)))
		}
	}
	return nil
}
