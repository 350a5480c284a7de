package rtree

import (
	"stpq/internal/geo"
	"stpq/internal/storage"
)

// Delete removes the item with the given id at the given location and
// reports whether it was found. Aggregates (MBRs, score bounds, keyword
// summaries) are recomputed bottom-up along the deletion path, so the
// ŝ(e) ≥ s(t) contract of Section 4.1 keeps holding after deletions.
//
// Nodes are allowed to become under-full: the classic condense-and-
// reinsert step is skipped, trading a slightly sparser tree for simpler
// maintenance (empty nodes are unlinked, and the root collapses when it
// has a single child). Query correctness is unaffected.
func (t *Tree) Delete(id int64, loc geo.Point) (bool, error) {
	found, _, _, err := t.deleteAt(t.root, 1, id, loc)
	if err != nil {
		return false, err
	}
	if !found {
		return false, nil
	}
	t.size--
	// Collapse a root with a single child to keep the height tight.
	for t.height > 1 {
		v, err := t.View(t.root)
		if err != nil {
			return false, err
		}
		if v.Len() != 1 || v.Leaf() {
			break
		}
		t.root = v.Child(0)
		t.height--
	}
	return true, nil
}

// deleteAt removes the item from the subtree at pid (depth d). It returns
// whether the item was found, whether the node at pid is now empty, and
// the refreshed aggregate entry for pid.
func (t *Tree) deleteAt(pid storage.PageID, d int, id int64, loc geo.Point) (found, empty bool, self Entry, err error) {
	n, err := t.Node(pid)
	if err != nil {
		return false, false, Entry{}, err
	}
	if d == t.height {
		for i := range n.Entries {
			if e := &n.Entries[i]; e.ItemID == id && e.Rect.Min == loc {
				n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
				if err := t.updateNode(pid, n); err != nil {
					return false, false, Entry{}, err
				}
				return true, len(n.Entries) == 0, t.entryAggregate(pid, n), nil
			}
		}
		return false, false, Entry{}, nil
	}
	for i := range n.Entries {
		e := &n.Entries[i]
		if !e.Rect.Contains(loc) {
			continue
		}
		childFound, childEmpty, childSelf, err := t.deleteAt(e.Child, d+1, id, loc)
		if err != nil {
			return false, false, Entry{}, err
		}
		if !childFound {
			continue
		}
		if childEmpty {
			n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
		} else {
			n.Entries[i] = childSelf
		}
		if err := t.updateNode(pid, n); err != nil {
			return false, false, Entry{}, err
		}
		return true, len(n.Entries) == 0, t.entryAggregate(pid, n), nil
	}
	return false, false, Entry{}, nil
}
