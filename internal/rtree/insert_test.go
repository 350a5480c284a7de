package rtree

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/kwset"
)

// assertFolded fails unless every internal entry of tr is the exact fold of
// its child node — the MBR of the child's entries, their greatest score and
// the union of their keywords — and not merely a cover of them. The fold is
// computed here, apart from entryAggregate, so a fault in that rule shows.
func assertFolded(t *testing.T, tr *Tree) {
	t.Helper()
	for _, id := range pageIDs(t, tr) {
		n, err := tr.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		if n.Leaf {
			continue
		}
		for i := range n.Entries {
			e := &n.Entries[i]
			child, err := tr.Node(e.Child)
			if err != nil {
				t.Fatal(err)
			}
			rect, score, kw := geo.EmptyRect(), 0.0, kwset.NewSet(tr.cfg.KeywordWidth)
			for _, c := range child.Entries {
				rect = rect.Union(c.Rect)
				score = math.Max(score, c.Score)
				kw.UnionInPlace(c.Keywords)
			}
			if e.Rect != rect || e.Score != score || !e.Keywords.Equal(kw) {
				t.Fatalf("node %d entry %d: (%v, %v, %v), the fold of child %d is (%v, %v, %v)",
					id, i, e.Rect, e.Score, e.Keywords, e.Child, rect, score, kw)
			}
		}
	}
}

// Insert refolds every node it writes back, as Delete does: after 600
// inserts into an empty tree, and again after a third of the items are
// deleted, CheckInvariants holds and every internal entry is the exact fold
// of its child (assertFolded), the root's keyword summary and score
// included.
func TestInsertAbsorbMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 64, WithScore: true})
	items := randomItems(rng, 600, 64)
	check := func(stage string, live []Item) {
		t.Helper()
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		assertFolded(t, tr)
		root, err := tr.RootEntry()
		if err != nil {
			t.Fatal(err)
		}
		wantKW, wantScore := kwset.NewSet(64), 0.0
		for _, it := range live {
			wantKW.UnionInPlace(it.Keywords)
			wantScore = math.Max(wantScore, it.Score)
		}
		if !root.Keywords.Equal(wantKW) {
			t.Errorf("%s: root keyword summary is not the exact union of item keywords", stage)
		}
		if root.Score != wantScore {
			t.Errorf("%s: root score = %v, want %v", stage, root.Score, wantScore)
		}
	}
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
	if tr.Height() < 3 {
		t.Fatalf("height %d: the inserts split no inner node", tr.Height())
	}
	check("after the inserts", items)
	var live []Item
	for i, it := range items {
		if i%3 != 0 {
			live = append(live, it)
			continue
		}
		if ok, err := tr.Delete(it.ID, it.Location); err != nil || !ok {
			t.Fatalf("delete %d: found %v, %v", it.ID, ok, err)
		}
	}
	check("after the deletes", live)
}

// FuzzInsertDelete decodes the fuzz bytes, four to an operation, into up
// to 200 inserts and deletes on a bulk-loaded tree of 64 keywords and
// 512-byte pages. An insert's location is a point of a 16×16 grid, so
// items share locations; a delete removes a live item. After every
// operation CheckInvariants must pass and every internal entry must be the
// exact fold of its child (assertFolded).
func FuzzInsertDelete(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x11, 0x22, 0x33, 0x01, 0x00, 0x05, 0x00})
	f.Add(bytes.Repeat([]byte{0xfe, 0x77, 0x80, 0x05}, 200))                                 // one location, one keyword pair
	f.Add(append(bytes.Repeat([]byte{0x01, 0x00, 0x07, 0x00}, 150), 0x00, 0x11, 0x22, 0x33)) // delete every item, insert one
	f.Add(bytes.Repeat([]byte{0x00, 0x3c, 0xff, 0x3f, 0x03, 0x12, 0x34, 0x00}, 100))         // alternate
	f.Fuzz(func(t *testing.T, ops []byte) {
		const w, maxOps = 64, 200
		tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: w, WithScore: true})
		live := randomItems(rand.New(rand.NewSource(1)), 150, w)
		if err := tr.BulkLoad(live, hilbert2DKey); err != nil {
			t.Fatal(err)
		}
		next := int64(len(live))
		for k := 0; k+4 <= len(ops) && k < 4*maxOps; k += 4 {
			op, a, b, c := ops[k], ops[k+1], ops[k+2], ops[k+3]
			if op&1 == 0 || len(live) == 0 {
				it := Item{
					ID:       next,
					Location: geo.Point{X: float64(a&15) / 15, Y: float64(a>>4) / 15},
					Score:    float64(b) / 255,
					Keywords: kwset.SetFromWords(w, int(c)%w, int(op>>2)),
				}
				next++
				if err := tr.Insert(it); err != nil {
					t.Fatal(err)
				}
				live = append(live, it)
			} else {
				i := (int(a)<<8 | int(b)) % len(live)
				it := live[i]
				if ok, err := tr.Delete(it.ID, it.Location); err != nil || !ok {
					t.Fatalf("op %d: delete %d: found %v, %v", k/4, it.ID, ok, err)
				}
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", k/4, err)
			}
			assertFolded(t, tr)
		}
	})
}

// insertBase is the size of the bulk-loaded tree TestAllocsInsert and
// BenchmarkInsert insert into.
const insertBase = 20_000

// insertItems returns the insertBase items the insert tree is built from,
// then n more to insert: 128 keywords and scores.
func insertItems(n int) []Item {
	return randomItems(rand.New(rand.NewSource(54)), insertBase+n, 128)
}

// insertTree bulk-loads the first insertBase of items by the SRT key into
// a tree of 128 keywords, scores and 4 KiB pages.
func insertTree(tb testing.TB, items []Item) *Tree {
	tb.Helper()
	tr, err := New(Config{KeywordWidth: 128, WithScore: true})
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.BulkLoad(items[:insertBase], srtKey()); err != nil {
		tb.Fatal(err)
	}
	return tr
}

// TestAllocsInsert: an Insert into the bulk-loaded 20 K-item tree decodes
// a node per level and refolds each node it writes back. Averaged over
// 1,000 inserts, the splits of the packed leaves they meet first included,
// that is 17 allocations per insert; it was 52 while the no-split path
// merged keyword summaries through Hilbert values, three encodes and three
// decodes a level.
func TestAllocsInsert(t *testing.T) {
	const runs = 1000
	items := insertItems(runs + 1)
	tr := insertTree(t, items)
	next := insertBase
	allocs := testing.AllocsPerRun(runs, func() {
		if err := tr.Insert(items[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("%.1f allocs per insert", allocs)
	if allocs > 20 {
		t.Errorf("%.1f allocs per insert, budget 20", allocs)
	}
}

// BenchmarkInsert times 5,000 inserts into the bulk-loaded 20 K-item tree;
// the bulk load of each iteration is not timed.
func BenchmarkInsert(b *testing.B) {
	const inserts = 5_000
	items := insertItems(inserts)
	b.ReportAllocs()
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		tr := insertTree(b, items)
		b.StartTimer()
		for _, it := range items[insertBase:] {
			if err := tr.Insert(it); err != nil {
				b.Fatal(err)
			}
		}
	}
}
