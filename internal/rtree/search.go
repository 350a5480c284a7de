package rtree

import (
	"stpq/internal/geo"
)

// RangeSearch visits every indexed item within Euclidean distance r of
// center, in no particular order. fn returning false stops the search
// early. It is the retrieval primitive behind getDataObjects for the range
// score variant (paper Section 6.4).
func (t *Tree) RangeSearch(center geo.Point, r float64, fn func(Entry) bool) error {
	return t.searchNode(t.root, func(e *Entry) bool {
		if e.Leaf {
			return e.Rect.Min.Dist(center) <= r
		}
		return e.Rect.MinDist(center) <= r
	}, byValue(fn))
}

// SearchRect visits every indexed item inside rect.
func (t *Tree) SearchRect(rect geo.Rect, fn func(Entry) bool) error {
	return t.searchNode(t.root, func(e *Entry) bool {
		if e.Leaf {
			return rect.Contains(e.Rect.Min)
		}
		return e.Rect.Intersects(rect)
	}, byValue(fn))
}

// SearchFiltered visits every item whose ancestors all pass the prune
// predicate. prune receives internal entries (subtree MBR plus
// aggregates) and leaf entries alike and returns whether the entry can
// contain qualifying items. fn receives qualifying leaf entries and
// returns false to stop. Both see the entries in place: the pointers are
// into the tree's shared decoded nodes, valid only for the duration of the
// call, and must not be written through or retained.
func (t *Tree) SearchFiltered(prune func(*Entry) bool, fn func(*Entry) bool) error {
	return t.searchNode(t.root, prune, fn)
}

// byValue adapts a result callback that takes its entry by value.
func byValue(fn func(Entry) bool) func(*Entry) bool {
	return func(e *Entry) bool { return fn(*e) }
}

// searchNode is the shared depth-first traversal. It reads the shared
// decoded nodes in place, one pointer per visited entry.
func (t *Tree) searchNode(pid storagePage, accept func(*Entry) bool, fn func(*Entry) bool) error {
	stack := []storagePage{pid}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.Node(id)
		if err != nil {
			return err
		}
		for i := range n.Entries {
			e := &n.Entries[i]
			if !accept(e) {
				continue
			}
			if e.Leaf {
				if !fn(e) {
					return nil
				}
			} else {
				stack = append(stack, e.Child)
			}
		}
	}
	return nil
}

// KNearest returns the k items nearest to center in increasing distance
// order (best-first search with a priority queue of MINDIST bounds).
func (t *Tree) KNearest(center geo.Point, k int) ([]Entry, error) {
	if k <= 0 {
		return nil, nil
	}
	out := make([]Entry, 0, k)
	err := t.AscendDistance(center, func(e Entry, _ float64) bool {
		out = append(out, e)
		return len(out) < k
	})
	return out, err
}

// AscendDistance streams indexed items in increasing distance from center.
// fn receives each item and its distance and returns false to stop. This
// is the incremental nearest-neighbor primitive used by the NN score
// variant and the Voronoi construction.
func (t *Tree) AscendDistance(center geo.Point, fn func(Entry, float64) bool) error {
	root, err := t.RootEntry()
	if err != nil {
		return err
	}
	pq := &distQueue{}
	pq.push(distItem{entry: root, dist: root.Rect.MinDist(center)})
	for pq.Len() > 0 {
		it := pq.pop()
		if it.entry.Leaf {
			if !fn(it.entry, it.dist) {
				return nil
			}
			continue
		}
		n, err := t.Node(it.entry.Child)
		if err != nil {
			return err
		}
		for i := range n.Entries {
			c := &n.Entries[i]
			pq.push(distItem{entry: *c, dist: c.Rect.MinDist(center)})
		}
	}
	return nil
}

// distItem pairs an entry — copied out of its node, so a queued item never
// points into a shared decoded node — with its MINDIST priority.
type distItem struct {
	entry Entry
	dist  float64
}

// distQueue is a min-heap over distances.
type distQueue []distItem

func (q distQueue) Len() int { return len(q) }

// push and pop are typed heap operations: the container/heap interface
// would box every distItem, costing an allocation per operation on the
// distance-ascent hot path.
func (q *distQueue) push(it distItem) {
	s := append(*q, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].dist <= s[i].dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*q = s
}

func (q *distQueue) pop() distItem {
	s := *q
	n := len(s) - 1
	top := s[0]
	s[0] = s[n]
	s[n] = distItem{}
	s = s[:n]
	*q = s
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].dist < s[l].dist {
			m = r
		}
		if s[m].dist >= s[i].dist {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// All returns every indexed item (leaf-order scan). It is the sequential
// object scan STDS starts from.
func (t *Tree) All() ([]Entry, error) {
	var out []Entry
	err := t.searchNode(t.root, func(*Entry) bool { return true }, func(e *Entry) bool {
		out = append(out, *e)
		return true
	})
	return out, err
}

// Leaves visits each leaf node's entries as one batch — the unit the
// batched STDS score computation processes together (paper Section 5,
// "Performance improvements"). Leaf batches are spatially coherent, which
// is what makes batching effective. The batch is the shared decoded node's
// own entry array: read it in place, do not write it or keep it.
func (t *Tree) Leaves(fn func([]Entry) bool) error {
	stack := []storagePage{t.root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n, err := t.Node(id)
		if err != nil {
			return err
		}
		if n.Leaf {
			if len(n.Entries) > 0 && !fn(n.Entries) {
				return nil
			}
			continue
		}
		for i := range n.Entries {
			stack = append(stack, n.Entries[i].Child)
		}
	}
	return nil
}

// SearchPolygon visits every item inside the convex polygon pg. Internal
// nodes are pruned when their MBR does not intersect the polygon — the
// retrieval step over Voronoi cell intersections in Section 7.2.
func (t *Tree) SearchPolygon(pg geo.Polygon, fn func(Entry) bool) error {
	if pg.IsEmpty() {
		return nil
	}
	return t.searchNode(t.root, func(e *Entry) bool {
		if e.Leaf {
			return pg.Contains(e.Rect.Min)
		}
		return pg.IntersectsRect(e.Rect)
	}, byValue(fn))
}
