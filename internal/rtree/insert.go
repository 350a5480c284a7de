package rtree

import (
	"fmt"

	"stpq/internal/storage"
)

// Insert adds one item to the tree using the classic Guttman insertion
// with quadratic node splitting. Bulk loading is preferred for building
// indexes (and is what the paper's experiments use); Insert supports
// incremental maintenance. Every node it writes back is refolded from its
// entries (entryAggregate), as Delete and the bulk load do, so each
// ancestor's MBR, score bound and keyword summary cover the new item. The
// paper's SRT (Section 4.2) stores the Hilbert value H(e.W) in a node and
// updates it by decode → OR → encode; our nodes store the bitmap e.W, so
// the rule is e.W ∪= t.W.
func (t *Tree) Insert(it Item) error {
	split, rootEntry, err := t.insertAt(t.root, 1, t.entryOf(it))
	if err != nil {
		return err
	}
	if split != nil {
		// Root split: grow the tree by one level.
		rootNode := &Node{Leaf: false, Entries: []Entry{*rootEntry, *split}}
		pid, err := t.writeNode(rootNode)
		if err != nil {
			return fmt.Errorf("rtree: grow root: %w", err)
		}
		t.root = pid
		t.height++
	}
	t.size++
	return nil
}

// insertAt inserts e into the subtree rooted at pid (depth d from root).
// It returns the entry for a new sibling if the node split, plus the
// refreshed aggregate entry describing the (possibly shrunk) node at pid.
func (t *Tree) insertAt(pid storagePage, d int, e Entry) (split *Entry, self *Entry, err error) {
	n, err := t.Node(pid)
	if err != nil {
		return nil, nil, err
	}
	if d == t.height {
		// Leaf level: place the entry here.
		n.Entries = append(n.Entries, e)
		return t.finishInsert(pid, n)
	}
	child := t.chooseSubtree(n, e)
	childSplit, childSelf, err := t.insertAt(n.Entries[child].Child, d+1, e)
	if err != nil {
		return nil, nil, err
	}
	n.Entries[child] = *childSelf
	if childSplit != nil {
		n.Entries = append(n.Entries, *childSplit)
	}
	return t.finishInsert(pid, n)
}

// finishInsert writes n back (splitting on overflow) and returns the new
// sibling entry (if any) and the aggregate entry for pid, each the fold of
// its node's entries (entryAggregate), as after a Delete or a bulk load.
func (t *Tree) finishInsert(pid storagePage, n *Node) (*Entry, *Entry, error) {
	if len(n.Entries) <= t.layout(n.Leaf).capacity {
		if err := t.updateNode(pid, n); err != nil {
			return nil, nil, err
		}
		agg := t.entryAggregate(pid, n)
		return nil, &agg, nil
	}
	t.splits++
	a, b := t.quadraticSplit(n.Entries)
	nodeA := &Node{Leaf: n.Leaf, Entries: a}
	nodeB := &Node{Leaf: n.Leaf, Entries: b}
	if err := t.updateNode(pid, nodeA); err != nil {
		return nil, nil, err
	}
	newPid, err := t.writeNode(nodeB)
	if err != nil {
		return nil, nil, err
	}
	aggA := t.entryAggregate(pid, nodeA)
	aggB := t.entryAggregate(newPid, nodeB)
	return &aggB, &aggA, nil
}

// chooseSubtree picks the child needing the least area enlargement to
// cover e, breaking ties by smaller area.
func (t *Tree) chooseSubtree(n *Node, e Entry) int {
	best := 0
	bestEnl, bestArea := inf, inf
	for i := range n.Entries {
		c := &n.Entries[i]
		area := c.Rect.Area()
		enl := c.Rect.Union(e.Rect).Area() - area
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = i, enl, area
		}
	}
	return best
}

// quadraticSplit partitions entries into two groups using Guttman's
// quadratic algorithm, respecting the minimum fill.
func (t *Tree) quadraticSplit(entries []Entry) (a, b []Entry) {
	seedA, seedB := pickSeeds(entries)
	a = append(a, entries[seedA])
	b = append(b, entries[seedB])
	rectA, rectB := entries[seedA].Rect, entries[seedB].Rect
	rest := make([]Entry, 0, len(entries)-2)
	for i, e := range entries {
		if i != seedA && i != seedB {
			rest = append(rest, e)
		}
	}
	for len(rest) > 0 {
		// Honour minimum fill: if one group must take all the rest, do so.
		if len(a)+len(rest) <= t.minFill {
			a = append(a, rest...)
			break
		}
		if len(b)+len(rest) <= t.minFill {
			b = append(b, rest...)
			break
		}
		// Pick the entry with the strongest preference.
		bestIdx, bestDiff := 0, -1.0
		var bestToA bool
		for i, e := range rest {
			dA := rectA.Union(e.Rect).Area() - rectA.Area()
			dB := rectB.Union(e.Rect).Area() - rectB.Area()
			diff := dA - dB
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx, bestToA = diff, i, dA < dB
			}
		}
		e := rest[bestIdx]
		rest[bestIdx] = rest[len(rest)-1]
		rest = rest[:len(rest)-1]
		if bestToA {
			a = append(a, e)
			rectA = rectA.Union(e.Rect)
		} else {
			b = append(b, e)
			rectB = rectB.Union(e.Rect)
		}
	}
	return a, b
}

// pickSeeds finds the pair of entries wasting the most area if grouped
// together.
func pickSeeds(entries []Entry) (int, int) {
	worst := -1.0
	ia, ib := 0, 1
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			d := entries[i].Rect.Union(entries[j].Rect).Area() -
				entries[i].Rect.Area() - entries[j].Rect.Area()
			if d > worst {
				worst, ia, ib = d, i, j
			}
		}
	}
	return ia, ib
}

// storagePage aliases the page id type to keep signatures compact.
type storagePage = storage.PageID
