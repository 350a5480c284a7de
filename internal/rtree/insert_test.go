package rtree

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/kwset"
)

// assertFolded fails unless every internal entry of tr is the exact fold of
// its child node — the MBR of the child's entries, their greatest score,
// the union of their keywords, on a tree with score tables the table whose
// every level is the greatest of the child's at that keyword (an item's
// own level at each of its keywords) with e.s its top level over 15, and
// the union of the child's pair signatures or, over a leaf, the bits of
// every pair of keywords one of its items holds and the token of each
// keyword an item holds alone — and not merely a cover of them. The fold is computed here, apart from
// entryAggregate, so a fault in that rule shows.
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
			var pairs PairSig
			levels := make([]int, tr.cfg.KeywordWidth)
			for _, c := range child.Entries {
				rect = rect.Union(c.Rect)
				score = math.Max(score, c.Score)
				kw.UnionInPlace(c.Keywords)
				pairs = orSig(pairs, refPairs(&c, tr.cfg.KeywordWidth))
				foldLevels(levels, &c)
			}
			if tr.cfg.levelled() {
				score = 0
				for k, l := range levels {
					score = math.Max(score, float64(l)/15)
					if got := int(e.levels[k/16]>>(4*(k%16))) & 15; got != l {
						t.Fatalf("node %d entry %d: keyword %d at level %d, the fold of child %d has %d", id, i, k, got, e.Child, l)
					}
				}
			}
			if e.Rect != rect || e.Score != score || !e.Keywords.Equal(kw) {
				t.Fatalf("node %d entry %d: (%v, %v, %v), the fold of child %d is (%v, %v, %v)",
					id, i, e.Rect, e.Score, e.Keywords, e.Child, rect, score, kw)
			}
			if e.pairs == nil || *e.pairs != pairs {
				t.Fatalf("node %d entry %d: pair signature %x, the fold of child %d is %x", id, i, e.pairs, e.Child, pairs)
			}
		}
	}
}

// foldLevels raises levels[k] to what the decoded entry c folds into its
// parent's table at keyword k: a leaf's own level, refLevel(t.s), at each
// of its keywords below the width, an internal entry's level.
func foldLevels(levels []int, c *Entry) {
	for k := range levels {
		l := 0
		switch {
		case c.Leaf && c.Keywords.Has(k):
			l = refLevel(c.Score)
		case !c.Leaf && c.levels != nil:
			l = int(c.levels[k/16]>>(4*(k%16))) & 15
		}
		levels[k] = max(levels[k], l)
	}
}

// refLevel is the least level l ≥ 1 whose score l/15 is not below s, 15
// when there is none, found by trying each: Level apart from its rounding
// arithmetic.
func refLevel(s float64) int {
	for l := 1; l < 15; l++ {
		if float64(l)/15 >= s {
			return l
		}
	}
	return 15
}

// refPairs is what a decoded entry folds into its parent's pair signature
// on a tree of the given keyword width, computed apart from
// PairSig.addSet: an internal entry's signature; for a leaf, the bits of
// every pair a < b of its keywords below the width and, if it has one
// keyword there alone, the bits of its token, the pair (k, k). A key's
// bits are the PairSigHashes 9-bit fields of its Splitmix64 image from the
// bottom up.
func refPairs(e *Entry, width int) PairSig {
	var s PairSig
	if !e.Leaf {
		if e.pairs != nil {
			s = *e.pairs
		}
		return s
	}
	var ids []int
	for _, k := range e.Keywords.IDs() {
		if k < width {
			ids = append(ids, k)
		}
	}
	add := func(a, b int) {
		h := kwset.Splitmix64(uint64(a)<<32 | uint64(b))
		for f := 0; f < PairSigHashes; f++ {
			bit := h >> (9 * f) % 512
			s[bit/64] |= 1 << (bit % 64)
		}
	}
	for x, a := range ids {
		for _, b := range ids[x+1:] {
			add(a, b)
		}
	}
	if len(ids) == 1 {
		add(ids[0], ids[0])
	}
	return s
}

// orSig returns a ∪ b.
func orSig(a, b PairSig) PairSig {
	for i := range a {
		a[i] |= b[i]
	}
	return a
}

// Insert refolds every node it writes back, as Delete does: after 600
// inserts into an empty tree, and again after a third of the items are
// deleted, CheckInvariants holds and every internal entry is the exact fold
// of its child (assertFolded), the root's keyword summary, pair signature
// and score included — on trees of 16, 64 and MaxLevelWidth keywords,
// with score tables, whose root score is the top level of an item that has
// a keyword, and on ones of MaxLevelWidth+1 and wideWidth, with e.s and e.W.
func TestInsertAbsorbMatchesFullRecompute(t *testing.T) {
	for _, width := range []int{16, 64, MaxLevelWidth, MaxLevelWidth + 1, wideWidth} {
		t.Run(fmt.Sprintf("width=%d", width), func(t *testing.T) {
			insertAbsorbMatchesFullRecompute(t, Config{PageSize: 512, KeywordWidth: width, WithScore: true})
		})
	}
}

// wideWidth is a keyword width above MaxLevelWidth, whose last keyword word
// is partly used: the tests' tree with e.s and e.W on its inner slots.
const wideWidth = MaxLevelWidth + 44

func insertAbsorbMatchesFullRecompute(t *testing.T, cfg Config) {
	rng := rand.New(rand.NewSource(11))
	tr := newTestTree(t, cfg)
	items := randomItems(rng, 600, cfg.KeywordWidth)
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
		wantKW, wantScore := kwset.NewSet(cfg.KeywordWidth), 0.0
		var wantPairs PairSig
		for _, it := range live {
			wantKW.UnionInPlace(it.Keywords)
			if !cfg.levelled() {
				wantScore = math.Max(wantScore, it.Score)
			} else if !it.Keywords.IsEmpty() {
				wantScore = math.Max(wantScore, float64(refLevel(it.Score))/15)
			}
			wantPairs = orSig(wantPairs, refPairs(&Entry{Leaf: true, Keywords: it.Keywords}, cfg.KeywordWidth))
		}
		if !root.Keywords.Equal(wantKW) {
			t.Errorf("%s: root keyword summary is not the exact union of item keywords", stage)
		}
		if *root.pairs != wantPairs {
			t.Errorf("%s: root pair signature is not the exact fold of the items' keyword pairs", stage)
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
// to 200 inserts and deletes on a bulk-loaded tree of scores and 512-byte
// pages: of 64 keywords, whose inner slots keep score tables, when the
// first byte is even, and of wideWidth keywords, whose inner slots keep
// e.s and e.W, when it is odd. An insert's location is a point of a 16×16 grid, so
// items share locations; a delete removes a live item. After every
// operation CheckInvariants must pass and every internal entry must be the
// exact fold of its child (assertFolded), its pair signature and score
// table included.
func FuzzInsertDelete(f *testing.F) {
	insertOne := []byte{0x00, 0x11, 0x22, 0x33}
	deleteAll := bytes.Repeat([]byte{0x01, 0x00, 0x07, 0x00}, 150)
	onePair := bytes.Repeat([]byte{0xfe, 0x77, 0x80, 0x05}, 200)
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x11, 0x22, 0x33, 0x01, 0x00, 0x05, 0x00})
	f.Add(onePair)                                                                   // one location, one keyword pair
	f.Add(bytes.Join([][]byte{{0x01, 0x00, 0x00, 0x00}, onePair[4:]}, nil))          // the same, wide
	f.Add(bytes.Join([][]byte{deleteAll, insertOne}, nil))                           // delete every item, insert one, wide
	f.Add(bytes.Join([][]byte{insertOne, deleteAll, deleteAll[:4], insertOne}, nil)) // the same, 64 keywords
	f.Add(bytes.Repeat([]byte{0x00, 0x3c, 0xff, 0x3f, 0x03, 0x12, 0x34, 0x00}, 100)) // alternate
	f.Add(bytes.Repeat([]byte{0x03, 0x3c, 0xff, 0x3f, 0x02, 0x12, 0x34, 0x00}, 100)) // alternate, wide
	f.Fuzz(func(t *testing.T, ops []byte) {
		const maxOps = 200
		w := 64
		if len(ops) > 0 && ops[0]&1 == 1 {
			w = wideWidth
		}
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
// a tree of 128 keywords, scores, score tables, pair signatures with
// tokens and 4 KiB pages, as an SRT index is.
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
