package rtree

import (
	"bytes"
	"math/rand"
	"testing"

	"stpq/internal/geo"
)

// WithExclude must hide tombstoned items from every search primitive while
// leaving the canonical tree untouched.
func TestWithExcludeHidesItems(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 16, WithScore: true})
	items := randomItems(rng, 400, 16)
	for _, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	dead := map[int64]struct{}{}
	for i := 0; i < 120; i++ {
		dead[int64(rng.Intn(400))] = struct{}{}
	}
	view := tr.WithExclude(dead)

	collect := func(walk func(fn func(Entry) bool) error) map[int64]bool {
		t.Helper()
		seen := map[int64]bool{}
		if err := walk(func(e Entry) bool {
			seen[e.ItemID] = true
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return seen
	}
	checks := map[string]map[int64]bool{
		"RangeSearch": collect(func(fn func(Entry) bool) error {
			return view.RangeSearch(geo.Point{X: 0.5, Y: 0.5}, 2, fn)
		}),
		"AscendDistance": collect(func(fn func(Entry) bool) error {
			return view.AscendDistance(geo.Point{X: 0.5, Y: 0.5}, func(e Entry, _ float64) bool {
				return fn(e)
			})
		}),
		"Leaves": collect(func(fn func(Entry) bool) error {
			return view.Leaves(func(leaf *PageView) bool {
				for i := 0; i < leaf.Len(); i++ {
					if leaf.Visible(i) && !fn(Entry{ItemID: leaf.ItemID(i)}) {
						return false
					}
				}
				return true
			})
		}),
	}
	if all, err := view.All(); err != nil {
		t.Fatal(err)
	} else {
		seen := map[int64]bool{}
		for _, e := range all {
			seen[e.ItemID] = true
		}
		checks["All"] = seen
	}
	for name, seen := range checks {
		for id := range dead {
			if seen[id] {
				t.Errorf("%s: tombstoned item %d surfaced", name, id)
			}
		}
		if len(seen) != len(items)-len(dead) {
			t.Errorf("%s: saw %d items, want %d", name, len(seen), len(items)-len(dead))
		}
	}

	// The canonical tree still sees everything.
	base := collect(func(fn func(Entry) bool) error {
		return tr.RangeSearch(geo.Point{X: 0.5, Y: 0.5}, 2, fn)
	})
	if len(base) != len(items) {
		t.Fatalf("canonical tree saw %d items, want %d", len(base), len(items))
	}
	// An empty exclusion set is a no-op view.
	if tr.WithExclude(nil) != tr {
		t.Error("WithExclude(nil) should return the receiver")
	}
}

// The no-split insert path maintains parent aggregates by absorbing the
// inserted entry (decode→OR→encode for keywords); the result must be
// indistinguishable from a full per-node re-fold — CheckInvariants verifies
// containment, and a reference fold verifies tightness at the root.
func TestInsertAbsorbMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 64, WithScore: true})
	items := randomItems(rng, 600, 64)
	for i, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
		if i%97 == 0 {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("after %d inserts: %v", i+1, err)
			}
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Root summary must be exactly the fold of all items, not merely a
	// superset: absorb keeps aggregates tight.
	root, err := tr.RootEntry()
	if err != nil {
		t.Fatal(err)
	}
	wantKW := items[0].Keywords.Clone()
	wantScore := items[0].Score
	for _, it := range items[1:] {
		wantKW.UnionInPlace(it.Keywords)
		if it.Score > wantScore {
			wantScore = it.Score
		}
	}
	if !root.Keywords.Equal(wantKW) {
		t.Error("root keyword summary is not the exact union of item keywords")
	}
	if root.Score != wantScore {
		t.Errorf("root score = %v, want %v", root.Score, wantScore)
	}
}

// A dead id is surfaced by no reader of a WithExclude view — the page
// view's accessors and Entry, the private decode of Tree.Node, and every
// traversal built on them — and hiding it writes nothing: every page image
// of the canonical tree holds the same bytes afterwards. internal/core's
// test of the same name holds the engine's own loops over views to it.
func TestExcludeHiddenFromEveryReader(t *testing.T) {
	tr, items := bulkTree(t, 400)
	ids := pageIDs(t, tr)
	images := make(map[storagePage][]byte, len(ids))
	for _, id := range ids {
		data, err := tr.Pool().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		images[id] = append([]byte(nil), data...)
	}
	dead := map[int64]struct{}{}
	for i := 0; i < len(items); i += 3 {
		dead[items[i].ID] = struct{}{}
	}
	view := tr.WithExclude(dead)
	center := geo.Point{X: 0.5, Y: 0.5}
	everywhere := func(geo.Rect, bool) bool { return true }
	leafSlots := func(see func(v *PageView, i int)) error {
		for _, id := range ids {
			v, err := view.View(id)
			if err != nil {
				return err
			}
			for i := 0; i < v.Len() && v.Leaf(); i++ {
				see(&v, i)
			}
		}
		return nil
	}

	readers := map[string]func(see func(Entry)) error{
		"Node": func(see func(Entry)) error {
			for _, id := range ids {
				n, err := view.Node(id)
				if err != nil {
					return err
				}
				for i := range n.Entries {
					if n.Leaf {
						see(n.Entries[i])
					}
				}
			}
			return nil
		},
		"View.Entry": func(see func(Entry)) error {
			var arena []uint64
			return leafSlots(func(v *PageView, i int) {
				var e Entry
				if v.Entry(i, &e, &arena) {
					see(e)
				}
			})
		},
		"View.Visible": func(see func(Entry)) error {
			return leafSlots(func(v *PageView, i int) {
				if v.Visible(i) {
					see(Entry{ItemID: v.ItemID(i)})
				}
			})
		},
		"RangeSearch": func(see func(Entry)) error {
			return view.RangeSearch(center, 2, func(e Entry) bool { see(e); return true })
		},
		"SearchFiltered": func(see func(Entry)) error {
			return view.SearchFiltered(everywhere, func(e Entry) bool { see(e); return true })
		},
		"SearchPolygon": func(see func(Entry)) error {
			return view.SearchPolygon(geo.UnitSquare(), func(e Entry) bool { see(e); return true })
		},
		"AscendDistance": func(see func(Entry)) error {
			return view.AscendDistance(center, func(e Entry, _ float64) bool { see(e); return true })
		},
		"Leaves": func(see func(Entry)) error {
			return view.Leaves(func(leaf *PageView) bool {
				for i := 0; i < leaf.Len(); i++ {
					if leaf.Visible(i) {
						see(Entry{ItemID: leaf.ItemID(i)})
					}
				}
				return true
			})
		},
		"All": func(see func(Entry)) error {
			all, err := view.All()
			for _, e := range all {
				see(e)
			}
			return err
		},
	}
	for name, read := range readers {
		seen := map[int64]bool{}
		if err := read(func(e Entry) { seen[e.ItemID] = true }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for id := range dead {
			if seen[id] {
				t.Errorf("%s: tombstoned item %d surfaced", name, id)
			}
		}
		if len(seen) != len(items)-len(dead) {
			t.Errorf("%s: saw %d items, want %d", name, len(seen), len(items)-len(dead))
		}
	}
	for _, id := range ids {
		data, err := tr.Pool().Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, images[id]) {
			t.Fatalf("page %d: the canonical image changed under the view's readers", id)
		}
	}
}
