package rtree

import (
	"math/rand"
	"reflect"
	"testing"

	"stpq/internal/storage"
)

// pageIDs returns every page of the tree, root first.
func pageIDs(t *testing.T, tr *Tree) []storage.PageID {
	t.Helper()
	ids := []storage.PageID{tr.Root()}
	for i := 0; i < len(ids); i++ {
		n, err := tr.Node(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			continue
		}
		for j := range n.Entries {
			ids = append(ids, n.Entries[j].Child)
		}
	}
	return ids
}

// itemsOf returns the item ids below the tree's leaves, read node by node.
func itemsOf(t *testing.T, tr *Tree) map[int64]bool {
	t.Helper()
	seen := map[int64]bool{}
	for _, id := range pageIDs(t, tr) {
		n, err := tr.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := range n.Entries {
			if n.Leaf {
				seen[n.Entries[i].ItemID] = true
			}
		}
	}
	return seen
}

func bulkTree(t *testing.T, n int) (*Tree, []Item) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 16, WithScore: true})
	items := randomItems(rng, n, 16)
	if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	return tr, items
}

// Node decodes a private copy on every call, each one counted as one
// logical read: writing the node one call returned changes neither the
// page nor what the next call returns.
func TestNodeIsPrivateAndCounted(t *testing.T) {
	tr, _ := bulkTree(t, 300)
	tr.Pool().ResetStats()
	a, err := tr.Node(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	want := append([]Entry(nil), a.Entries...)
	var acct storage.Stats
	view := tr.WithPool(tr.Pool().Session(&acct))
	for i := 0; i < 4; i++ {
		a.Entries[0].ItemID, a.Entries[0].Rect.Min.X = -1, -1
		a.Entries = a.Entries[:1]
		b, err := view.Node(tr.Root())
		if err != nil {
			t.Fatal(err)
		}
		if b == a || !reflect.DeepEqual(b.Entries, want) {
			t.Fatal("a write to a returned node reached the next Node")
		}
		a = b
	}
	if acct.LogicalReads != 4 || acct.PhysicalReads != 0 {
		t.Fatalf("four cached visits charged %+v, want 4 logical reads", acct)
	}
	if st := tr.Pool().Stats(); st.LogicalReads != 5 || st.PhysicalReads != 1 {
		t.Fatalf("pool counted %+v, want 5 logical / 1 physical", st)
	}
}

// A read through a WithExclude view leaves the pages it shares with the
// canonical tree whole: the canonical tree, reading the same cached pages
// afterwards, still sees every entry, and the view keeps hiding the dead
// ones however often it reads.
func TestWithExcludeLeavesSharedNodesWhole(t *testing.T) {
	tr, items := bulkTree(t, 400)
	dead := map[int64]struct{}{}
	for i := 0; i < len(items); i += 3 {
		dead[items[i].ID] = struct{}{}
	}
	view := tr.WithExclude(dead)
	for round := 0; round < 2; round++ {
		got := itemsOf(t, view)
		if len(got) != len(items)-len(dead) {
			t.Fatalf("round %d: view shows %d items, want %d", round, len(got), len(items)-len(dead))
		}
		for id := range dead {
			if got[id] {
				t.Fatalf("round %d: view shows tombstoned item %d", round, id)
			}
		}
		if got := itemsOf(t, tr); len(got) != len(items) {
			t.Fatalf("round %d: after a filtered read the canonical tree shows %d of %d items", round, len(got), len(items))
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Insert and Delete work on private decodes: what they change is visible
// to the next read, and a node handed out before stays exactly as it was.
func TestMutationsNeverTouchCachedNodes(t *testing.T) {
	tr, items := bulkTree(t, 200)
	type held struct {
		id   storage.PageID
		node *Node
		copy []Entry
	}
	var before []held
	for _, id := range pageIDs(t, tr) {
		n, err := tr.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		before = append(before, held{id, n, append([]Entry(nil), n.Entries...)})
	}

	rng := rand.New(rand.NewSource(12))
	fresh := randomItems(rng, 60, 16)
	for i := range fresh {
		fresh[i].ID += 10_000
		if err := tr.Insert(fresh[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items[:50] {
		found, err := tr.Delete(it.ID, it.Location)
		if err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", it.ID, found, err)
		}
	}

	for _, h := range before {
		if len(h.node.Entries) != len(h.copy) {
			t.Fatalf("page %d: a held node changed length %d → %d", h.id, len(h.copy), len(h.node.Entries))
		}
		for i := range h.copy {
			a, b := h.node.Entries[i], h.copy[i]
			if a.Rect != b.Rect || a.Child != b.Child || a.ItemID != b.ItemID || a.Score != b.Score || !a.Keywords.Equal(b.Keywords) {
				t.Fatalf("page %d entry %d: a held node was written: %+v → %+v", h.id, i, b, a)
			}
		}
	}
	got := itemsOf(t, tr)
	if len(got) != tr.Len() || tr.Len() != 200+60-50 {
		t.Fatalf("tree shows %d items, Len %d, want %d", len(got), tr.Len(), 200+60-50)
	}
	for _, it := range fresh {
		if !got[it.ID] {
			t.Fatalf("inserted item %d not visible to Node", it.ID)
		}
	}
	for _, it := range items[:50] {
		if got[it.ID] {
			t.Fatalf("deleted item %d still visible to Node", it.ID)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
