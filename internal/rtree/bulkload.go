package rtree

import (
	"errors"
	"fmt"
)

// ErrNotEmpty is returned when bulk loading into a non-empty tree.
var ErrNotEmpty = errors.New("rtree: bulk load requires an empty tree")

// SortKey orders items during bulk loading. The SRT-index supplies a 4-D
// Hilbert key over {x, y, score, KeywordMinHash(keywords)}; the IR²-tree
// and the plain object R-tree supply a 2-D spatial Hilbert key. Equal keys
// keep input order (stable sort).
type SortKey func(Item) uint64

// BulkLoad builds the tree bottom-up from items sorted by key, packing
// every node full — the Hilbert-packing bulk insertion of Kamel & Faloutsos
// the paper uses (Section 4.2). The tree must be empty.
func (t *Tree) BulkLoad(items []Item, key SortKey) error {
	if t.size != 0 {
		return ErrNotEmpty
	}
	if len(items) == 0 {
		return nil
	}
	// Sort (key, position) pairs so each key is computed once. The radix
	// sort is stable and the pairs start in position order, so ties keep
	// it: the order a stable sort of the items by key gives.
	order := make([]keyed, len(items))
	for i, it := range items {
		order[i] = keyed{key(it), i}
	}
	order = radixSort(order, make([]keyed, len(order)))

	leafFill, innerFill := t.layout(true).capacity, t.layout(false).capacity

	// Level 0: pack leaf nodes straight from items through one entry
	// buffer; writeNode copies what it keeps into the page image.
	level := make([]Entry, 0, (len(order)+leafFill-1)/leafFill)
	var lastPage = t.root
	n := &Node{Leaf: true, Entries: make([]Entry, 0, leafFill)}
	for start := 0; start < len(order); start += leafFill {
		end := min(start+leafFill, len(order))
		n.Entries = n.Entries[:0]
		for _, o := range order[start:end] {
			n.Entries = append(n.Entries, t.entryOf(items[o.pos]))
		}
		pid, err := t.writeNode(n)
		if err != nil {
			return fmt.Errorf("rtree: bulk load leaf: %w", err)
		}
		level = append(level, t.entryAggregate(pid, n))
		lastPage = pid
	}
	height := 1

	// Upper levels: pack internal nodes until a single node remains.
	for len(level) > 1 {
		next := make([]Entry, 0, (len(level)+innerFill-1)/innerFill)
		for start := 0; start < len(level); start += innerFill {
			end := start + innerFill
			if end > len(level) {
				end = len(level)
			}
			n := &Node{Leaf: false, Entries: level[start:end]}
			pid, err := t.writeNode(n)
			if err != nil {
				return fmt.Errorf("rtree: bulk load level %d: %w", height, err)
			}
			next = append(next, t.entryAggregate(pid, n))
		}
		level = next
		height++
	}

	if len(level) == 1 {
		t.root = level[0].Child
	} else {
		t.root = lastPage
	}
	t.height = height
	t.size = len(items)
	return nil
}

// keyed is an item's sort key and its position in the input.
type keyed struct {
	key uint64
	pos int
}

// radixSort sorts a by key, stably, over 8-bit digits least significant
// first, with buf (as long as a) as scratch; it returns the one holding the
// result. A digit every key shares is skipped (an order-16 2-D key: 4 of 8).
func radixSort(a, buf []keyed) []keyed {
	var counts [8][256]int
	for _, e := range a {
		for d := range counts {
			counts[d][byte(e.key>>(8*d))]++
		}
	}
	for d := range counts {
		c := &counts[d]
		if c[byte(a[0].key>>(8*d))] == len(a) {
			continue
		}
		sum := 0
		for i, n := range c {
			c[i], sum = sum, sum+n
		}
		for _, e := range a {
			b := byte(e.key >> (8 * d))
			buf[c[b]] = e
			c[b]++
		}
		a, buf = buf, a
	}
	return a
}
