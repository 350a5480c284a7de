package rtree

import (
	"stpq/internal/geo"
)

// RangeSearch visits every indexed item within Euclidean distance r of
// center, in no particular order. fn returning false stops the search
// early. It is the retrieval primitive behind getDataObjects for the range
// score variant (paper Section 6.4).
func (t *Tree) RangeSearch(center geo.Point, r float64, fn func(Entry) bool) error {
	return t.searchNode(func(rect geo.Rect, leaf bool) bool {
		if leaf {
			return rect.Min.Dist(center) <= r
		}
		return rect.MinDist(center) <= r
	}, fn)
}

// SearchFiltered visits every item whose ancestors all pass the prune
// predicate. prune receives the rectangle of internal and leaf slots alike
// — a leaf's is its item's location — and returns whether the slot can
// contain qualifying items. fn receives qualifying leaf entries and
// returns false to stop; it may keep the entries, whose keyword words are
// their own.
func (t *Tree) SearchFiltered(prune func(rect geo.Rect, leaf bool) bool, fn func(Entry) bool) error {
	return t.searchNode(prune, fn)
}

// searchNode is the shared depth-first traversal over page views. accept
// sees each slot's rectangle; only the accepted visible leaf slots are
// decoded, and handed to fn. The arena their keyword words are copied onto
// is only ever appended to, so every entry owns its words and a caller may
// keep the entries it is handed.
func (t *Tree) searchNode(accept func(rect geo.Rect, leaf bool) bool, fn func(Entry) bool) error {
	var buf [64]storagePage // up to 64 queued pages, a search allocates nothing
	stack := append(buf[:0], t.root)
	var (
		e     Entry
		arena []uint64
	)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, err := t.View(id)
		if err != nil {
			return err
		}
		for i := 0; i < v.Len(); i++ {
			if !v.leaf {
				if accept(v.Rect(i), false) {
					stack = append(stack, v.Child(i))
				}
				continue
			}
			if !accept(geo.RectOf(v.Point(i)), true) {
				continue
			}
			if v.Entry(i, &e, &arena) && !fn(e) {
				return nil
			}
		}
	}
	return nil
}

// AscendDistance streams indexed items in increasing distance from center.
// fn receives each item and its distance and returns false to stop; it may
// keep the entries, whose keyword words are their own. This is the
// incremental nearest-neighbor primitive.
func (t *Tree) AscendDistance(center geo.Point, fn func(Entry, float64) bool) error {
	pq := &distQueue{}
	// The root page is queued at distance 0, a bound that needs no read:
	// the root is read once, when it is popped.
	pq.push(distItem{entry: Entry{Child: t.root}})
	var arena []uint64 // only appended to: queued leaves own their words
	for pq.Len() > 0 {
		it := pq.pop()
		if it.entry.Leaf {
			if !fn(it.entry, it.dist) {
				return nil
			}
			continue
		}
		v, err := t.View(it.entry.Child)
		if err != nil {
			return err
		}
		for i := 0; i < v.Len(); i++ {
			var c Entry
			if !v.leaf {
				// An internal entry is only ever popped to be expanded.
				c = Entry{Rect: v.Rect(i), Child: v.Child(i)}
			} else if !v.Entry(i, &c, &arena) {
				continue
			}
			pq.push(distItem{entry: c, dist: c.Rect.MinDist(center)})
		}
	}
	return nil
}

// distItem pairs an entry with its MINDIST priority.
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

// All returns every indexed item (leaf-order scan), each entry owning its
// keyword words. It is the sequential object scan STDS starts from.
func (t *Tree) All() ([]Entry, error) {
	var out []Entry
	err := t.searchNode(func(geo.Rect, bool) bool { return true }, func(e Entry) bool {
		out = append(out, e)
		return true
	})
	return out, err
}

// Leaves visits each leaf node as one batch — the unit the batched STDS
// score computation processes together (paper Section 5, "Performance
// improvements"). Leaf batches are spatially coherent, which is what makes
// batching effective. The batch is the leaf's page view, read in place.
// On a WithExclude tree fn must skip every slot where !leaf.Visible(i);
// a leaf it is handed may have no visible slot at all.
func (t *Tree) Leaves(fn func(*PageView) bool) error {
	stack := []storagePage{t.root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, err := t.View(id)
		if err != nil {
			return err
		}
		if !v.leaf {
			for i := 0; i < v.Len(); i++ {
				stack = append(stack, v.Child(i))
			}
			continue
		}
		if v.Len() > 0 && !fn(&v) {
			return nil
		}
	}
	return nil
}

// SearchPolygon visits every item inside the convex polygon pg, in the
// order searchNode would: internal nodes are pruned when their MBR does
// not intersect the polygon — the retrieval step over Voronoi cell
// intersections in Section 7.2. The polygon's containment box stands in
// front of both tests: a slot whose MBR misses it, or whose location lies
// outside it, is rejected in four compares, before IntersectsRect or
// Contains — neither of which could accept it. It walks the pages itself,
// not through searchNode: with the same box, searchNode's per-slot
// closure made the NN variant's queries about 7 % slower (DESIGN.md §4).
func (t *Tree) SearchPolygon(pg geo.Polygon, fn func(Entry) bool) error {
	if pg.IsEmpty() {
		return nil
	}
	pts, rects := pg.ContainBox()
	var buf [64]storagePage // up to 64 queued pages, a search allocates nothing
	stack := append(buf[:0], t.root)
	var (
		e     Entry
		arena []uint64
	)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, err := t.View(id)
		if err != nil {
			return err
		}
		if !v.leaf {
			for i := 0; i < v.Len(); i++ {
				if r := v.Rect(i); rects.Intersects(r) && pg.IntersectsRect(r) {
					stack = append(stack, v.Child(i))
				}
			}
			continue
		}
		for i := 0; i < v.Len(); i++ {
			if p := v.Point(i); !pts.Contains(p) || !pg.Contains(p) {
				continue
			}
			if v.Entry(i, &e, &arena) && !fn(e) {
				return nil
			}
		}
	}
	return nil
}
