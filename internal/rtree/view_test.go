package rtree

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/kwset"
	"stpq/internal/obs"
	"stpq/internal/storage"
)

// viewConfigs spans the page layouts the trees derive: the object tree (no
// augmentation), with and without the score slot, and exact keyword widths
// below, at and across word boundaries, on every page size from 512 bytes
// (two inner slots a page from MaxLevelWidth on) to 4 KiB — with scores
// the feature indexes' inner slots, a score table and a pair signature,
// whose keywords have a level each up to MaxLevelWidth and share buckets
// above it (MaxLevelWidth+1 and wideWidth). A width of 1 holds no pairs,
// only tokens.
// Each keyword width comes without scores too: a configuration New and
// Open refuse (refused), since a tree with keywords has scores.
func viewConfigs() []Config {
	var out []Config
	for _, page := range []int{512, 1024, 2048, 4096} {
		for _, width := range []int{0, 1, 16, 64, 100, 128, 200, MaxLevelWidth, MaxLevelWidth + 1, wideWidth} {
			for _, score := range []bool{false, true} {
				out = append(out, Config{PageSize: page, KeywordWidth: width, WithScore: score})
			}
		}
	}
	return out
}

// refused fails the test unless New and Open refuse cfg, a tree with
// keywords and no scores.
func refused(t *testing.T, cfg Config) {
	t.Helper()
	if _, err := New(cfg); err == nil {
		t.Fatalf("New accepted %+v", cfg)
	}
	disk := storage.NewMemDisk(cfg.PageSize)
	if _, err := disk.Allocate(); err != nil {
		t.Fatal(err)
	}
	cfg.Disk = disk
	if _, err := Open(cfg, Meta{Height: 1}); err == nil {
		t.Fatalf("Open accepted %+v", cfg)
	}
}

// grownTree builds a tree over n random items, bulk-loaded or grown by
// Insert and thinned by Delete. A few items carry keyword sets wider than
// the tree's, whose excess bits decodeNode masks off.
func grownTree(t *testing.T, cfg Config, n int, bulk bool) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(31 + cfg.KeywordWidth + cfg.PageSize)))
	tr := newTestTree(t, cfg)
	items := randomItems(rng, n, cfg.KeywordWidth)
	if w := cfg.KeywordWidth; w > 0 {
		for i := 0; i < n; i += 17 {
			items[i].Keywords.Add(w + rng.Intn(40))
		}
	}
	if bulk {
		if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
			t.Fatal(err)
		}
		return tr
	}
	for _, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	for _, it := range items[:n/4] {
		if found, err := tr.Delete(it.ID, it.Location); err != nil || !found {
			t.Fatalf("delete %d: found=%v err=%v", it.ID, found, err)
		}
	}
	return tr
}

// refDecode is a byte-by-byte reading of the page format written by
// encodeNode, independent of PageView: the reference the view's accessors,
// Entry and decodeNode are held to.
func refDecode(tr *Tree, data []byte) *Node {
	n := &Node{Leaf: data[0]&1 == 1}
	count := int(binary.LittleEndian.Uint16(data[1:3]))
	off := nodeHeaderSize
	for i := 0; i < count; i++ {
		e := Entry{Leaf: n.Leaf, Child: storage.InvalidPage}
		if n.Leaf {
			e.ItemID = int64(binary.LittleEndian.Uint64(data[off:]))
			var x, y float64
			x, off = getFloat(data, off+8)
			y, off = getFloat(data, off)
			e.Rect = geo.RectOf(geo.Point{X: x, Y: y})
		} else {
			e.Child = storage.PageID(binary.LittleEndian.Uint32(data[off:]))
			var c [4]float64
			off += 4
			for j := range c {
				c[j], off = getFloat(data, off)
			}
			e.Rect = geo.Rect{Min: geo.Point{X: c[0], Y: c[1]}, Max: geo.Point{X: c[2], Y: c[3]}}
		}
		if !n.Leaf && tr.cfg.KeywordWidth > 0 {
			// A table of 4-bit levels, low nibble first, one a bucket, up
			// to 256 of them: keyword k's is bucket k mod 256's. e.W is
			// the keywords whose bucket has a level, e.s the top level
			// over 15.
			width := tr.cfg.KeywordWidth
			e.levels = make([]uint64, (min(width, 256)+15)/16)
			kw := make([]uint64, kwWords(width))
			top := 0
			for b := 0; b < 16*len(e.levels); b++ {
				l := int(data[off+b/2]>>(4*(b%2))) & 15
				e.levels[b/16] |= uint64(l) << (4 * (b % 16))
				for k := b; l > 0 && k < width; k += 256 {
					kw[k/64] |= 1 << (k % 64)
				}
				top = max(top, l)
			}
			off += 8 * len(e.levels)
			e.Score = float64(top) / 15
			e.Keywords = kwset.FromBitsOwned(width, kw)
		} else if tr.cfg.WithScore {
			e.Score, off = getFloat(data, off)
		}
		if words := kwWords(tr.cfg.KeywordWidth); words > 0 && e.levels == nil {
			raw := make([]uint64, words)
			for w := range raw {
				raw[w] = binary.LittleEndian.Uint64(data[off:])
				off += 8
			}
			e.Keywords = kwset.FromBitsOwned(tr.cfg.KeywordWidth, raw)
		}
		if !n.Leaf && tr.cfg.KeywordWidth > 0 {
			e.pairs = new(PairSig)
			for w := range e.pairs {
				e.pairs[w] = binary.LittleEndian.Uint64(data[off:])
				off += 8
			}
		}
		n.Entries = append(n.Entries, e)
	}
	return n
}

// getFloat reads a float64 at off and returns it with the next offset.
func getFloat(buf []byte, off int) (float64, int) {
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])), off + 8
}

// Every slot of every page reads through the view exactly as the reference
// decode reads it — Entry with its cached cardinality, decodeNode, and each
// of Rect, Point, Child, ItemID and Visible — and the keyword scans agree
// with Set.Intersects on the decoded entries from every starting slot. A
// configuration with keywords and no scores is refused instead.
func TestPageViewMatchesDecodedNode(t *testing.T) {
	for _, cfg := range viewConfigs() {
		for _, bulk := range []bool{true, false} {
			name := fmt.Sprintf("page=%d/width=%d/score=%v/bulk=%v", cfg.PageSize, cfg.KeywordWidth, cfg.WithScore, bulk)
			t.Run(name, func(t *testing.T) {
				if cfg.KeywordWidth > 0 && !cfg.WithScore {
					refused(t, cfg)
					return
				}
				tr := grownTree(t, cfg, 700, bulk)
				if tr.Height() < 2 {
					t.Fatal("single-node tree: no internal slots compared")
				}
				rng := rand.New(rand.NewSource(5))
				var arena []uint64
				for _, id := range pageIDs(t, tr) {
					data, err := tr.Pool().Get(id)
					if err != nil {
						t.Fatal(err)
					}
					want := refDecode(tr, data)
					if got, err := tr.decodeNode(data); err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("page %d: decodeNode %+v, %v; reference %+v", id, got, err, want)
					}
					v, err := tr.View(id)
					if err != nil {
						t.Fatal(err)
					}
					if v.Leaf() != want.Leaf || v.Len() != len(want.Entries) {
						t.Fatalf("page %d: view leaf=%v len=%d, node leaf=%v len=%d", id, v.Leaf(), v.Len(), want.Leaf, len(want.Entries))
					}
					for i := range want.Entries {
						var got Entry
						if !v.Entry(i, &got, &arena) {
							t.Fatalf("page %d slot %d hidden on a tree without tombstones", id, i)
						}
						if !reflect.DeepEqual(got, want.Entries[i]) {
							t.Fatalf("page %d slot %d: view %+v, reference %+v", id, i, got, want.Entries[i])
						}
						if err := checkAccessors(&v, i, &got, true); err != nil {
							t.Fatalf("page %d: %v", id, err)
						}
					}
					for _, q := range querySets(rng, cfg.KeywordWidth) {
						checkScan(t, v, want, q)
					}
				}
			})
		}
	}
}

// querySets returns random query sets narrower than, as wide as and wider
// than a tree of the given keyword width, sparse and dense, and the empty
// set.
func querySets(rng *rand.Rand, width int) []kwset.Set {
	out := []kwset.Set{{}, kwset.NewSet(width)}
	for _, w := range []int{width / 3, width, width + 1, width + 100} {
		for _, n := range []int{1, 2, 12} {
			q := kwset.NewSet(w)
			for j := 0; j < n && w > 0; j++ {
				q.Add(rng.Intn(w))
			}
			out = append(out, q)
		}
	}
	return out
}

// checkScan compares, on an inner page, NextInner from every starting slot
// with a scan of the decoded node by Set.Intersects and its price points
// with refFront on the decoded slot; and on a leaf, or any page of a tree
// without keywords, NextIntersecting and NextCounted from every starting
// slot with that scan, and NextCounted's counts with Set.IntersectCount
// and Count.
func checkScan(t *testing.T, v PageView, n *Node, q kwset.Set) {
	t.Helper()
	var lq LevelQuery
	lq.Reset(q.WordsBits())
	next := len(n.Entries) // first intersecting slot at or after i, filled backwards
	for i := len(n.Entries); i >= 0; i-- {
		if i < len(n.Entries) && n.Entries[i].Keywords.Intersects(q) {
			next = i
		}
		if !v.Leaf() {
			if got := v.NextInner(i, &lq); got != next {
				t.Fatalf("NextInner(%d, %v) = %d, Set.Intersects says %d", i, q, got, next)
			}
			if next < len(n.Entries) {
				if front, want := lq.Front(), refFront(&n.Entries[next], q); !reflect.DeepEqual(front, want) {
					t.Fatalf("slot %d, query %v: price points %v, decoded slot %v", next, q, front, want)
				}
			}
		}
		if v.lvOff > 0 {
			continue
		}
		if got := v.NextIntersecting(i, q.WordsBits()); got != next {
			t.Fatalf("NextIntersecting(%d, %v) = %d, Set.Intersects says %d", i, q, got, next)
		}
		got, inter, count := v.NextCounted(i, q.WordsBits())
		if got != next || got < len(n.Entries) && (inter != n.Entries[got].Keywords.IntersectCount(q) || count != n.Entries[got].Keywords.Count()) {
			t.Fatalf("NextCounted(%d, %v) = %d, %d, %d; decoded slot %d", i, q, got, inter, count, next)
		}
	}
}

// refFront is NextInner's price points read from a decoded inner entry,
// apart from the view. A query keyword below the width has its bucket's
// level in e.levels: its own up to 256 keywords, that of k mod 256 above.
// For each level m a query keyword has, highest first, the keywords at
// m or above number n, hits of their pairs have their key in e.pairs
// (refHas) and tokened of them their token; a point (m/15, c, least) is
// kept, c = n capped at the largest c with c(c−1)/2 ≤ hits and least = c,
// or 2 where c is 1 and tokened is 0, where c exceeds every higher level's
// or least is below every higher level's.
func refFront(e *Entry, q kwset.Set) []LevelCount {
	level := func(k int) int {
		if k >= e.Keywords.Width() {
			return 0
		}
		b := k % 256
		return int(e.levels[b/16]>>(4*(b%16))) & 15
	}
	// kwAt[m] counts the query keywords at level m, hitAt[m] the pairs
	// whose lower level is m and whose key e.pairs holds, tokAt[m] the
	// keywords at m whose token it holds.
	var kwAt, hitAt, tokAt [16]int
	var held []int
	for _, a := range q.IDs() {
		if l := level(a); l > 0 {
			kwAt[l]++
			held = append(held, a)
			if refHas(e.pairs, a, a) {
				tokAt[l]++
			}
		}
	}
	for x, a := range held {
		for _, b := range held[x+1:] {
			if refHas(e.pairs, a, b) {
				hitAt[min(level(a), level(b))]++
			}
		}
	}
	var out []LevelCount
	last, n, hits, tokened := LevelCount{}, 0, 0, 0
	for m := 15; m >= 1; m-- {
		n, hits, tokened = n+kwAt[m], hits+hitAt[m], tokened+tokAt[m]
		if kwAt[m] == 0 {
			continue
		}
		c := n
		for c*(c-1)/2 > hits {
			c--
		}
		least := c
		if c == 1 && tokened == 0 {
			least = 2
		}
		if c > last.Count || least < last.Least {
			last = LevelCount{Score: float64(m) / 15, Count: c, Least: least}
			out = append(out, last)
		}
	}
	return out
}

// refHas reports whether the signature s holds the key of the keywords a
// ≤ b — a pair, or where a = b a token — by testing each of its bits,
// found apart from the view: the PairSigHashes 9-bit fields of the key's
// Splitmix64 image from the bottom up.
func refHas(s *PairSig, a, b int) bool {
	h := kwset.Splitmix64(uint64(min(a, b))<<32 | uint64(max(a, b)))
	for f := 0; f < PairSigHashes; f++ {
		if bit := h >> (9 * f) % 512; s[bit/64]>>(bit%64)&1 == 0 {
			return false
		}
	}
	return true
}

// checkAccessors compares the slot accessors of slot i with e, what Entry
// made of the slot, and with visible, what it reported.
func checkAccessors(v *PageView, i int, e *Entry, visible bool) error {
	if v.Visible(i) != visible {
		return fmt.Errorf("slot %d: Visible %v, Entry %v", i, v.Visible(i), visible)
	}
	if !visible {
		return nil
	}
	if r := v.Rect(i); !samePoint(r.Min, e.Rect.Min) || !samePoint(r.Max, e.Rect.Max) {
		return fmt.Errorf("slot %d: Rect %v, Entry %v", i, r, e.Rect)
	}
	if v.Leaf() && (v.ItemID(i) != e.ItemID || !samePoint(v.Point(i), e.Point())) || !v.Leaf() && v.Child(i) != e.Child {
		return fmt.Errorf("slot %d: ItemID %d Point %v Child %d, Entry %+v", i, v.ItemID(i), v.Point(i), v.Child(i), *e)
	}
	return nil
}

// samePoint compares coordinates bit for bit, so that a NaN read from
// arbitrary bytes equals itself.
func samePoint(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}

// Arbitrary bytes are a page the view rejects or reads within bounds: a
// count above the capacity and a page cut short are errors, never panics;
// every accessor agrees with Entry on every slot, on trees that hide the
// even item ids too; on an inner page NextInner meets the slots whose
// decoded e.W meets the query, with refFront's price points; and on a leaf
// the counted scan meets the slots NextIntersecting meets, with the counts
// and the score Entry's decode gives. The trees are of 1, 2, 4 and 5
// keyword words (the unrolled case and the general one), with score tables
// of a level a keyword up to MaxLevelWidth and of shared buckets above it,
// each at the boundary too, and the queries of 1 to 5 words, all-ones ones
// among them, whose bits beyond the tree's width the scans must not count.
// Trees 7, 8 and 9 are trees 1, 2 and 3 with the even ids hidden. The
// corpus's seeds pick tree 0, and as 7 and 8 a tree of 32 keywords and one
// of wideWidth; keep those in place.
func FuzzPageView(f *testing.F) {
	cfgs := []Config{
		{PageSize: 1024},
		{PageSize: 1024, KeywordWidth: 32, WithScore: true},
		{PageSize: 1024, KeywordWidth: wideWidth, WithScore: true},
		{PageSize: 1024, KeywordWidth: 128, WithScore: true},
		{PageSize: 1024, KeywordWidth: 100, WithScore: true},
		{PageSize: 1024, KeywordWidth: MaxLevelWidth, WithScore: true},
		{PageSize: 1024, KeywordWidth: MaxLevelWidth + 1, WithScore: true},
	}
	trees := make([]*Tree, len(cfgs))
	for i, cfg := range cfgs {
		tr, err := New(cfg)
		if err != nil {
			f.Fatal(err)
		}
		if err := tr.BulkLoad(randomItems(rand.New(rand.NewSource(3)), 200, cfg.KeywordWidth), hilbert2DKey); err != nil {
			f.Fatal(err)
		}
		trees[i] = tr
		root, err := tr.Pool().Get(tr.Root())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), append([]byte(nil), root...))
		f.Add(uint8(i), append([]byte(nil), root[:len(root)/3]...))
		over := append([]byte(nil), root...)
		binary.LittleEndian.PutUint16(over[1:3], 0xffff)
		f.Add(uint8(i), over)
	}
	f.Add(uint8(0), []byte{1})
	even := map[int64]struct{}{}
	for id := int64(0); id < 200; id += 2 {
		even[id] = struct{}{}
	}
	trees = append(trees, trees[1].WithExclude(even), trees[2].WithExclude(even), trees[3].WithExclude(even))
	for i, tr := range trees {
		leaf := tr.Root()
		for n := tr.Height(); n > 1; n-- {
			v, err := tr.View(leaf)
			if err != nil {
				f.Fatal(err)
			}
			leaf = v.Child(0)
		}
		page, err := tr.Pool().Get(leaf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), append([]byte(nil), page...))
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		tr := trees[int(which)%len(trees)]
		v, err := tr.viewOf(data)
		if err != nil {
			return
		}
		if capacity := tr.layout(v.Leaf()).capacity; v.Len() > capacity {
			t.Fatalf("view accepted %d slots, capacity %d", v.Len(), capacity)
		}
		ones := []uint64{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)}
		queries := [][]uint64{{1<<3 | 1<<40}, {1 << 9, 1<<2 | 1<<35}, {0, 1 << 50, 1 << 7, 1<<1 | 1<<63}}
		for n := 0; n <= len(ones); n++ {
			queries = append(queries, ones[:n])
		}
		// Every slot decoded once: what the scans are held to.
		var arena []uint64
		entries, visible := make([]Entry, v.Len()), make([]bool, v.Len())
		for i := range entries {
			visible[i] = v.Entry(i, &entries[i], &arena)
			if err := checkAccessors(&v, i, &entries[i], visible[i]); err != nil {
				t.Fatal(err)
			}
		}
		var lq LevelQuery
		for _, q := range queries {
			qs := kwset.FromBits(64*len(q), q)
			lq.Reset(q)
			if !v.Leaf() {
				met := v.NextInner(0, &lq)
				for j := range entries {
					e := &entries[j]
					if !e.Keywords.Intersects(qs) {
						continue
					}
					if met != j {
						t.Fatalf("query %x: NextInner meets slot %d, Entry %d", q, met, j)
					}
					if front, want := lq.Front(), refFront(e, qs); !reflect.DeepEqual(front, want) {
						t.Fatalf("query %x slot %d: price points %v, Entry %v", q, j, front, want)
					}
					met = v.NextInner(j+1, &lq)
				}
				if met != v.Len() {
					t.Fatalf("query %x: NextInner meets slot %d, Entry none", q, met)
				}
			}
			if v.lvOff > 0 {
				continue
			}
			i, inter, count := v.NextCounted(0, q)
			for j := v.NextIntersecting(0, q); ; j = v.NextIntersecting(j+1, q) {
				if i != j {
					t.Fatalf("query %x: NextCounted meets slot %d, NextIntersecting %d", q, i, j)
				}
				if j == v.Len() {
					break
				}
				if e := &entries[j]; visible[j] {
					if inter != e.Keywords.IntersectCount(qs) || count != e.Keywords.Count() {
						t.Fatalf("query %x slot %d: counted %d of %d words, Entry %d of %d", q, j, inter, count, e.Keywords.IntersectCount(qs), e.Keywords.Count())
					}
					if tr.cfg.WithScore && math.Float64bits(v.Score(j)) != math.Float64bits(e.Score) {
						t.Fatalf("slot %d: Score %v, Entry %v", j, v.Score(j), e.Score)
					}
				}
				i, inter, count = v.NextCounted(j+1, q)
			}
		}
	})
}

// A view outlives its page's residency: readers that hold views on a
// two-page pool, while other goroutines miss and evict beside them, read
// the bytes they fetched. And a view counts as a node does: the same page
// sequence read either way charges the same reads.
func TestViewSurvivesEviction(t *testing.T) {
	cfg := Config{PageSize: 1024, KeywordWidth: 64, WithScore: true, BufferPages: 2}
	tr := grownTree(t, cfg, 900, true)
	ids := pageIDs(t, tr)
	// What every page holds, read once through a pool of its own.
	want := make(map[storage.PageID]*Node, len(ids))
	ref := tr.WithPool(storage.NewBufferPool(tr.Config().Disk, len(ids)))
	for _, id := range ids {
		n, err := ref.Node(id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = n
	}
	reg := obs.NewRegistry()
	tr.Pool().SetMetrics(storage.NewPoolMetrics(reg, "t"))

	const readers, churners, rounds = 4, 2, 30
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var arena []uint64
			held := make([]PageView, 0, 8)
			heldIDs := make([]storage.PageID, 0, 8)
			for r := 0; r < rounds; r++ {
				// Fetch several views — more than the pool holds, so all but
				// the last two are of evicted pages — then read each.
				held, heldIDs = held[:0], heldIDs[:0]
				for j := 0; j < 8; j++ {
					id := ids[rng.Intn(len(ids))]
					v, err := tr.View(id)
					if err != nil {
						t.Error(err)
						return
					}
					held, heldIDs = append(held, v), append(heldIDs, id)
				}
				for j := range held {
					v, n := &held[j], want[heldIDs[j]]
					if v.Len() != len(n.Entries) || v.Leaf() != n.Leaf {
						t.Errorf("page %d: held view has %d slots, page holds %d", heldIDs[j], v.Len(), len(n.Entries))
						return
					}
					for i := range n.Entries {
						var e Entry
						arena = arena[:0]
						if !v.Entry(i, &e, &arena) || !reflect.DeepEqual(e, n.Entries[i]) {
							t.Errorf("page %d slot %d: held view reads %+v, page holds %+v", heldIDs[j], i, e, n.Entries[i])
							return
						}
					}
				}
			}
		}(g)
	}
	for g := 0; g < churners; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for r := 0; r < rounds*8; r++ {
				// Misses through both readers.
				if _, err := tr.Node(ids[rng.Intn(len(ids))]); err != nil {
					t.Error(err)
					return
				}
				if _, err := tr.View(ids[rng.Intn(len(ids))]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := reg.Snapshot().Counters[`stpq_bufferpool_evictions_total{pool="t"}`]; n == 0 {
		t.Fatal("no read evicted a page: the test shows nothing")
	}

	rng := rand.New(rand.NewSource(9))
	seq := make([]storage.PageID, 200)
	for i := range seq {
		seq[i] = ids[rng.Intn(len(ids))]
	}
	count := func(read func(*Tree, storage.PageID) error) storage.Stats {
		tr.Pool().Clear()
		var acct storage.Stats
		sess := tr.WithPool(tr.Pool().Session(&acct))
		for _, id := range seq {
			if err := read(sess, id); err != nil {
				t.Fatal(err)
			}
		}
		return acct
	}
	byNode := count(func(tr *Tree, id storage.PageID) error { _, err := tr.Node(id); return err })
	byView := count(func(tr *Tree, id storage.PageID) error { _, err := tr.View(id); return err })
	if byNode != byView || byView.PhysicalReads == 0 || byView.Evictions == 0 {
		t.Fatalf("the same page sequence charged %+v through Node and %+v through View", byNode, byView)
	}
}

// Entries a reader hands out to be kept — All's, and AscendDistance's,
// RangeSearch's, SearchFiltered's and SearchPolygon's callbacks' — own
// their keyword words:
// after further reads of every kind, through a two-page pool that evicts on
// almost every one of them, each kept entry still carries its own item's
// keyword set. A reader that cut back or shared the arena its entries'
// words are copied onto would hand out entries whose words the next slot,
// or the next search, overwrites.
func TestKeptEntriesOwnTheirKeywords(t *testing.T) {
	cfg := Config{PageSize: 1024, KeywordWidth: 128, WithScore: true, BufferPages: 2}
	rng := rand.New(rand.NewSource(41))
	tr := newTestTree(t, cfg)
	items := randomItems(rng, 900, cfg.KeywordWidth)
	if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	want := make(map[int64]kwset.Set, len(items))
	for _, it := range items {
		want[it.ID] = it.Keywords
	}
	center := geo.Point{X: 0.5, Y: 0.5}
	read := func() map[string][]Entry {
		kept := map[string][]Entry{}
		all, err := tr.All()
		if err != nil {
			t.Fatal(err)
		}
		kept["All"] = all
		keep := func(name string) func(Entry) bool {
			return func(e Entry) bool { kept[name] = append(kept[name], e); return true }
		}
		if err := tr.RangeSearch(center, 0.3, keep("RangeSearch")); err != nil {
			t.Fatal(err)
		}
		if err := tr.SearchPolygon(geo.UnitSquare(), keep("SearchPolygon")); err != nil {
			t.Fatal(err)
		}
		near := func(rect geo.Rect, _ bool) bool { return rect.MinDist(center) <= 0.3 }
		if err := tr.SearchFiltered(near, keep("SearchFiltered")); err != nil {
			t.Fatal(err)
		}
		ascend := keep("AscendDistance")
		if err := tr.AscendDistance(center, func(e Entry, _ float64) bool { return ascend(e) }); err != nil {
			t.Fatal(err)
		}
		return kept
	}
	kept := read()
	tr.Pool().ResetStats()
	read() // further reads of every kind, evicting what the first ones read
	if tr.Pool().Stats().Evictions == 0 {
		t.Fatal("the further reads evicted nothing: the test shows nothing")
	}
	for name, entries := range kept {
		if len(entries) < 100 {
			t.Fatalf("%s kept only %d entries", name, len(entries))
		}
		for _, e := range entries {
			if !e.Keywords.Equal(want[e.ItemID]) {
				t.Fatalf("%s: kept entry %d carries %v, its item %v", name, e.ItemID, e.Keywords, want[e.ItemID])
			}
		}
	}
}

// A warm search over the views allocates nothing per node: searching the
// whole object tree (no keyword words) costs no more allocations than
// searching a corner of it, however many more pages it reads.
func TestAllocsViewSearchPerNode(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tr := newTestTree(t, Config{PageSize: 512})
	if err := tr.BulkLoad(randomItems(rng, 3000, 0), hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	corner := geo.Polygon{Vertices: []geo.Point{{X: 0, Y: 0}, {X: 0.02, Y: 0}, {X: 0, Y: 0.02}}}
	searches := map[string][2]func(){
		"RangeSearch": {
			func() { _ = tr.RangeSearch(geo.Point{}, 0.02, func(Entry) bool { return true }) },
			func() { _ = tr.RangeSearch(geo.Point{}, 2, func(Entry) bool { return true }) },
		},
		"SearchPolygon": {
			func() { _ = tr.SearchPolygon(corner, func(Entry) bool { return true }) },
			func() { _ = tr.SearchPolygon(geo.UnitSquare(), func(Entry) bool { return true }) },
		},
	}
	for name, pair := range searches {
		reads := func(search func()) int64 {
			before := tr.Pool().Stats().LogicalReads
			search()
			return tr.Pool().Stats().LogicalReads - before
		}
		small, large := reads(pair[0]), reads(pair[1])
		if large < 20*small {
			t.Fatalf("%s: %d pages against %d: the searches do not differ in size", name, large, small)
		}
		a, b := testing.AllocsPerRun(50, pair[0]), testing.AllocsPerRun(50, pair[1])
		t.Logf("%s: %v allocs over %d pages, %v over %d", name, a, small, b, large)
		if b > a {
			t.Errorf("%s: %v allocs over %d pages, %v over %d: a search allocates per node", name, a, small, b, large)
		}
	}
}
