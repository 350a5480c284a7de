package rtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/hilbert"
	"stpq/internal/kwset"
	"stpq/internal/storage"
)

// referenceBulkLoad is BulkLoad as it was before it sorted (key, position)
// pairs and packed leaves through one buffer: a stable sort of an index
// permutation, a sorted copy of the items, and a fresh entry slice per leaf.
// The trees it builds are the ones the pages of a saved DB hold.
func (t *Tree) referenceBulkLoad(items []Item, key SortKey) error {
	if t.size != 0 {
		return ErrNotEmpty
	}
	if len(items) == 0 {
		return nil
	}
	keys := make([]uint64, len(items))
	for i, it := range items {
		keys[i] = key(it)
	}
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	sorted := make([]Item, len(items))
	for i, j := range idx {
		sorted[i] = items[j]
	}

	leafFill := fill(t.layout(true).capacity, t.cfg.FillFactor)
	innerFill := fill(t.layout(false).capacity, t.cfg.FillFactor)

	level := make([]Entry, 0, (len(sorted)+leafFill-1)/leafFill)
	var lastPage = t.root
	for start := 0; start < len(sorted); start += leafFill {
		end := start + leafFill
		if end > len(sorted) {
			end = len(sorted)
		}
		n := &Node{Leaf: true}
		for _, it := range sorted[start:end] {
			n.Entries = append(n.Entries, t.entryOf(it))
		}
		pid, err := t.writeNode(n)
		if err != nil {
			return err
		}
		level = append(level, t.entryAggregate(pid, n))
		lastPage = pid
	}
	height := 1
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
				return err
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
	t.size = len(sorted)
	return nil
}

// srtKey is the SRT-index's bulk-load key (index.FeatureIndex.sortKey):
// the 4-D Hilbert index of {x, y, score, MinHash(keywords)} at order 16.
func srtKey() SortKey {
	return func(it Item) uint64 {
		return hilbert.Encode4D(geo.Quantize(it.Location.X, 16), geo.Quantize(it.Location.Y, 16),
			geo.Quantize(it.Score, 16), hilbert.KeywordMinHash(it.Keywords, 16), 16)
	}
}

// clumpedItems draws n items from a handful of locations, scores and
// keyword sets, so that most of them share their sort key with others and
// the tie order decides which page an item lands on.
func clumpedItems(rng *rand.Rand, n, w int) []Item {
	items := make([]Item, n)
	for i := range items {
		kw := kwset.NewSet(w)
		if w > 0 {
			kw.Add(rng.Intn(4))
		}
		items[i] = Item{
			ID:       int64(i),
			Location: geo.Point{X: float64(rng.Intn(3)) / 2, Y: float64(rng.Intn(3)) / 2},
			Score:    float64(rng.Intn(2)),
			Keywords: kw,
		}
	}
	return items
}

// TestBulkLoadPagesMatchReference: BulkLoad writes the very pages the
// pre-change loader wrote — same page ids, same images, same root, height
// and size — for the three trees a DB builds (SRT and IR² feature trees, the
// object tree), on random inputs and on inputs whose keys mostly tie. The
// last two keys drive the radix sort's skipped passes: every key equal
// (all eight skipped, the input order is the answer), and keys that differ
// only in their top byte (seven skipped, long runs of ties). The 2-D keys of
// order 16 skip four.
func TestBulkLoadPagesMatchReference(t *testing.T) {
	const w = 70
	trees := []struct {
		name string
		cfg  Config
		key  SortKey
	}{
		{"srt", Config{PageSize: 1024, KeywordWidth: w, WithScore: true}, srtKey()},
		{"ir2", Config{PageSize: 1024, KeywordWidth: w, WithScore: true}, hilbert2DKey},
		{"objects", Config{PageSize: 1024}, hilbert2DKey},
		{"srt-fill", Config{PageSize: 1024, KeywordWidth: w, WithScore: true, FillFactor: 0.7}, srtKey()},
		{"equal-keys", Config{PageSize: 1024}, func(Item) uint64 { return 0x0123456789abcdef }},
		{"top-byte", Config{PageSize: 1024}, func(it Item) uint64 { return uint64(it.ID*2654435761%5)<<56 | 0xabcdef }},
	}
	for _, tc := range trees {
		width := tc.cfg.KeywordWidth
		for _, n := range []int{1, 2, 37, 500, 5000} {
			for _, gen := range []struct {
				name  string
				items func(*rand.Rand, int, int) []Item
			}{{"random", randomItems}, {"clumped", clumpedItems}} {
				t.Run(fmt.Sprintf("%s/n=%d/%s", tc.name, n, gen.name), func(t *testing.T) {
					items := gen.items(rand.New(rand.NewSource(int64(n))), n, width)
					got, want := newTestTree(t, tc.cfg), newTestTree(t, tc.cfg)
					if err := got.BulkLoad(items, tc.key); err != nil {
						t.Fatal(err)
					}
					if err := want.referenceBulkLoad(items, tc.key); err != nil {
						t.Fatal(err)
					}
					assertSamePages(t, got, want)
				})
			}
		}
	}
}

// assertSamePages fails unless the two trees' disks hold byte-identical
// pages and the trees agree on root, height and size.
func assertSamePages(t *testing.T, got, want *Tree) {
	t.Helper()
	if got.Meta() != want.Meta() {
		t.Fatalf("meta %+v, reference %+v", got.Meta(), want.Meta())
	}
	gd, wd := got.cfg.Disk, want.cfg.Disk
	if gd.NumPages() != wd.NumPages() {
		t.Fatalf("%d pages, reference %d", gd.NumPages(), wd.NumPages())
	}
	for id := 0; id < gd.NumPages(); id++ {
		gb, err := gd.ReadPage(storage.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		wb, err := wd.ReadPage(storage.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb, wb) {
			t.Fatalf("page %d differs from the reference", id)
		}
	}
}
