package rtree

import (
	"math/rand"
	"testing"

	"stpq/internal/geo"
)

func TestDeleteBasic(t *testing.T) {
	tr := newTestTree(t, Config{PageSize: 512})
	items := randomItems(rand.New(rand.NewSource(1)), 50, 0)
	for _, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	ok, err := tr.Delete(items[7].ID, items[7].Location)
	if err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if tr.Len() != 49 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// The deleted item must be unfindable.
	found := false
	_ = tr.RangeSearch(items[7].Location, 1e-9, func(e Entry) bool {
		if e.ItemID == items[7].ID {
			found = true
		}
		return true
	})
	if found {
		t.Fatal("deleted item still findable")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteMissing(t *testing.T) {
	tr := newTestTree(t, Config{PageSize: 512})
	_ = tr.Insert(Item{ID: 1, Location: geo.Point{X: 0.5, Y: 0.5}})
	// Wrong id at right location.
	if ok, err := tr.Delete(2, geo.Point{X: 0.5, Y: 0.5}); err != nil || ok {
		t.Fatalf("Delete wrong id = %v, %v", ok, err)
	}
	// Right id at wrong location.
	if ok, err := tr.Delete(1, geo.Point{X: 0.1, Y: 0.1}); err != nil || ok {
		t.Fatalf("Delete wrong loc = %v, %v", ok, err)
	}
	if tr.Len() != 1 {
		t.Fatal("Len changed on failed delete")
	}
}

func TestDeleteHalfRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 16, WithScore: true})
	items := randomItems(rng, 1200, 16)
	if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	// Delete a random half.
	perm := rng.Perm(len(items))
	deleted := make(map[int64]bool)
	for _, idx := range perm[:600] {
		it := items[idx]
		ok, err := tr.Delete(it.ID, it.Location)
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", it.ID, ok, err)
		}
		deleted[it.ID] = true
	}
	if tr.Len() != 600 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Survivors — and only survivors — remain findable.
	all, err := tr.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 600 {
		t.Fatalf("All = %d", len(all))
	}
	for _, e := range all {
		if deleted[e.ItemID] {
			t.Fatalf("deleted item %d still present", e.ItemID)
		}
	}
	// Range queries still match brute force on survivors.
	center := geo.Point{X: 0.5, Y: 0.5}
	want := 0
	for _, it := range items {
		if !deleted[it.ID] && it.Location.Dist(center) <= 0.2 {
			want++
		}
	}
	got := 0
	_ = tr.RangeSearch(center, 0.2, func(Entry) bool { got++; return true })
	if got != want {
		t.Fatalf("range after deletes: got %d, want %d", got, want)
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := newTestTree(t, Config{PageSize: 256})
	items := randomItems(rng, 300, 0)
	if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	heightBefore := tr.Height()
	for _, it := range items {
		ok, err := tr.Delete(it.ID, it.Location)
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", it.ID, ok, err)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", tr.Len())
	}
	if tr.Height() >= heightBefore && heightBefore > 1 {
		t.Errorf("root did not collapse: height %d -> %d", heightBefore, tr.Height())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The tree must accept new items again.
	for i := 0; i < 50; i++ {
		if err := tr.Insert(Item{ID: int64(1000 + i), Location: geo.Point{X: rng.Float64(), Y: rng.Float64()}}); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 50 {
		t.Fatalf("Len = %d after reuse", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Deleting the max-score item must shrink ancestor score bounds so that
// the ŝ(e) bound stays tight (recomputed, not merely kept): on a tree whose
// keywords share table buckets, e.s, the top level, falls from the
// maximum's level to the next best item's.
func TestDeleteShrinksAggregates(t *testing.T) {
	tr := newTestTree(t, Config{PageSize: 512, WithScore: true, KeywordWidth: wideWidth})
	items := randomItems(rand.New(rand.NewSource(4)), 100, 8)
	for i := range items {
		items[i].Score = float64(i) / 200 // up to 0.495, level 8
	}
	items[99].Score = 0.999 // unique maximum, level 15
	if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	root, err := tr.RootEntry()
	if err != nil {
		t.Fatal(err)
	}
	if root.Score != LevelScore(Level(0.999)) {
		t.Fatalf("root score %v", root.Score)
	}
	if ok, err := tr.Delete(items[99].ID, items[99].Location); err != nil || !ok {
		t.Fatal("delete of max failed")
	}
	root, err = tr.RootEntry()
	if err != nil {
		t.Fatal(err)
	}
	if root.Score != LevelScore(Level(items[98].Score)) {
		t.Fatalf("root score %v not shrunk to %v after deleting the maximum", root.Score, LevelScore(Level(items[98].Score)))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
