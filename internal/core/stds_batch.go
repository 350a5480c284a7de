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
	scoreLeaf := func(leaf *rtree.PageView) bool {
		objs := e.scratchBatch(leaf.Len())
		active := objs[:0]
		for i, o := range objs {
			if leaf.Visible(i) {
				o.id, o.loc = leaf.ItemID(i), leaf.Point(i)
				active = append(active, o)
				stats.ObjectsScored++
			}
		}
		for set := 0; set < c && len(active) > 0; set++ {
			sp := tr.StartPhase("index.descend")
			err := e.batchRangeScores(set, q, active, stats)
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

// batchObj tracks one data object — copied out of its leaf page —
// through the per-set score computations.
type batchObj struct {
	id       int64
	loc      geo.Point
	sum      float64
	resolved bool // score for the current feature set found
}

// batchRangeScores runs the batched Algorithm 2 for one feature set,
// adding each object's τ_i(p) to its running sum: the feature stream under
// the batch lens emits, best first, the features in range of an object
// still unresolved, and each one resolves every such object it reaches.
func (e *Engine) batchRangeScores(set int, q *Query, batch []*batchObj, stats *Stats) error {
	for _, o := range batch {
		o.resolved = false
	}
	s := &e.scratch.stds
	s.init(e.features[set], q.keywordsFor(set), lens{kind: lensBatch, r: q.Radius, batch: batch}, stats)
	for unresolved := len(batch); unresolved > 0; {
		ref, _, err := s.next()
		if err != nil || ref.virtual {
			return err // ∅: every object left scores 0
		}
		for _, o := range batch {
			if !o.resolved && o.loc.Dist(ref.loc) <= q.Radius {
				o.sum += ref.score
				o.resolved = true
				unresolved--
			}
		}
	}
	return nil
}
