package rtree

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"stpq/internal/geo"
	"stpq/internal/hilbert"
	"stpq/internal/kwset"
	"stpq/internal/storage"
)

// hilbert2DKey is the spatial bulk-load key used by tests.
func hilbert2DKey(it Item) uint64 {
	return hilbert.Encode2D(geo.Quantize(it.Location.X, 16), geo.Quantize(it.Location.Y, 16), 16)
}

// randomItems generates n items with random locations, scores and keyword
// sets over a width-w vocabulary.
func randomItems(rng *rand.Rand, n, w int) []Item {
	items := make([]Item, n)
	for i := range items {
		kw := kwset.NewSet(w)
		if w > 0 {
			for j := 0; j < 1+rng.Intn(3); j++ {
				kw.Add(rng.Intn(w))
			}
		}
		items[i] = Item{
			ID:       int64(i),
			Location: geo.Point{X: rng.Float64(), Y: rng.Float64()},
			Score:    rng.Float64(),
			Keywords: kw,
		}
	}
	return items
}

func newTestTree(t *testing.T, cfg Config) *Tree {
	t.Helper()
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestNewCapacities(t *testing.T) {
	tr := newTestTree(t, Config{PageSize: 4096, KeywordWidth: 128, WithScore: true})
	if tr.layout(true).capacity < 10 || tr.layout(false).capacity < 10 {
		t.Errorf("capacities too small: leaf=%d inner=%d", tr.layout(true).capacity, tr.layout(false).capacity)
	}
	// A larger vocabulary must reduce fan-out (paper Fig. 7(d) reasoning).
	tr2 := newTestTree(t, Config{PageSize: 4096, KeywordWidth: 256, WithScore: true})
	if tr2.layout(true).capacity >= tr.layout(true).capacity {
		t.Errorf("capacity should drop with keyword width: %d vs %d",
			tr2.layout(true).capacity, tr.layout(true).capacity)
	}
}

func TestNewRejectsTinyPages(t *testing.T) {
	if _, err := New(Config{PageSize: 64, KeywordWidth: 1024, WithScore: true}); err == nil {
		t.Fatal("expected error for page too small")
	}
}

func TestEncodeDecodeNodeRoundTrip(t *testing.T) {
	tr := newTestTree(t, Config{PageSize: 1024, KeywordWidth: 70, WithScore: true})
	rng := rand.New(rand.NewSource(1))
	leaf := &Node{Leaf: true}
	for i := 0; i < 5; i++ {
		kw := kwset.NewSet(70)
		kw.Add(rng.Intn(70))
		kw.Add(64 + rng.Intn(6))
		leaf.Entries = append(leaf.Entries, Entry{
			Rect:     geo.RectOf(geo.Point{X: rng.Float64(), Y: rng.Float64()}),
			Child:    storage.InvalidPage,
			ItemID:   int64(1000 + i),
			Score:    rng.Float64(),
			Keywords: kw,
			Leaf:     true,
		})
	}
	buf, err := tr.encodeNode(leaf)
	if err != nil {
		t.Fatal(err)
	}
	// Pad to page size as the disk would.
	page := make([]byte, 1024)
	copy(page, buf)
	got, err := tr.decodeNode(page)
	if err != nil {
		t.Fatal(err)
	}
	if got.Leaf != leaf.Leaf || len(got.Entries) != len(leaf.Entries) {
		t.Fatalf("shape mismatch")
	}
	for i := range leaf.Entries {
		a, b := leaf.Entries[i], got.Entries[i]
		if a.ItemID != b.ItemID || a.Rect != b.Rect || a.Score != b.Score {
			t.Errorf("entry %d mismatch: %+v vs %+v", i, a, b)
		}
		if !a.Keywords.Equal(b.Keywords) {
			t.Errorf("entry %d keywords mismatch", i)
		}
	}

	// An inner slot: the fold of the leaf, which at this width keeps a
	// score table and a pair signature.
	agg := tr.entryAggregate(7, leaf)
	buf, err = tr.encodeNode(&Node{Entries: []Entry{agg}})
	if err != nil {
		t.Fatal(err)
	}
	page = make([]byte, 1024)
	copy(page, buf)
	got, err = tr.decodeNode(page)
	if err != nil {
		t.Fatal(err)
	}
	g := got.Entries[0]
	if got.Leaf || g.Child != 7 || g.Rect != agg.Rect || g.Score != agg.Score || !g.Keywords.Equal(agg.Keywords) ||
		!slices.Equal(g.levels, agg.levels) || *g.pairs != *agg.pairs {
		t.Errorf("internal round trip failed: %+v, want %+v", g, agg)
	}
}

func TestEncodeNodeOverflow(t *testing.T) {
	tr := newTestTree(t, Config{PageSize: 256})
	n := &Node{Leaf: true}
	for i := 0; i <= tr.layout(true).capacity; i++ {
		n.Entries = append(n.Entries, Entry{Leaf: true})
	}
	if _, err := tr.encodeNode(n); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestBulkLoadInvariants(t *testing.T) {
	for _, n := range []int{0, 1, 5, 100, 3000} {
		rng := rand.New(rand.NewSource(int64(n)))
		tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 64, WithScore: true})
		items := randomItems(rng, n, 64)
		if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if tr.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, tr.Len())
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		all, err := tr.All()
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != n {
			t.Fatalf("n=%d: All returned %d", n, len(all))
		}
		ids := make(map[int64]bool)
		for _, e := range all {
			ids[e.ItemID] = true
		}
		if len(ids) != n {
			t.Fatalf("n=%d: duplicate or missing ids", n)
		}
	}
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	tr := newTestTree(t, Config{PageSize: 512})
	if err := tr.Insert(Item{ID: 1, Location: geo.Point{X: 0.5, Y: 0.5}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.BulkLoad(randomItems(rand.New(rand.NewSource(1)), 5, 0), hilbert2DKey); err != ErrNotEmpty {
		t.Fatalf("got %v, want ErrNotEmpty", err)
	}
}

func TestInsertInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 32, WithScore: true})
	items := randomItems(rng, 800, 32)
	for i, it := range items {
		if err := tr.Insert(it); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Len() != len(items) {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Errorf("expected multi-level tree, height=%d", tr.Height())
	}
}

func TestRangeSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := newTestTree(t, Config{PageSize: 512})
	items := randomItems(rng, 1500, 0)
	if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 30; trial++ {
		center := geo.Point{X: rng.Float64(), Y: rng.Float64()}
		r := 0.02 + rng.Float64()*0.2
		want := make(map[int64]bool)
		for _, it := range items {
			if it.Location.Dist(center) <= r {
				want[it.ID] = true
			}
		}
		got := make(map[int64]bool)
		err := tr.RangeSearch(center, r, func(e Entry) bool {
			got[e.ItemID] = true
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing id %d", trial, id)
			}
		}
	}
}

func TestRangeSearchEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := newTestTree(t, Config{PageSize: 512})
	if err := tr.BulkLoad(randomItems(rng, 500, 0), hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	seen := 0
	err := tr.RangeSearch(geo.Point{X: 0.5, Y: 0.5}, 1.5, func(Entry) bool {
		seen++
		return seen < 10
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Errorf("early stop visited %d", seen)
	}
}

func TestAscendDistanceMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := newTestTree(t, Config{PageSize: 512})
	if err := tr.BulkLoad(randomItems(rng, 600, 0), hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	center := geo.Point{X: 0.4, Y: 0.6}
	prev := -1.0
	count := 0
	err := tr.AscendDistance(center, func(e Entry, d float64) bool {
		if d < prev-1e-12 {
			t.Fatalf("distance decreased: %v after %v", d, prev)
		}
		if math.Abs(e.Point().Dist(center)-d) > 1e-12 {
			t.Fatal("reported distance mismatch")
		}
		prev = d
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 600 {
		t.Fatalf("visited %d", count)
	}
}

func TestLeavesCoverAllItems(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tr := newTestTree(t, Config{PageSize: 512})
	items := randomItems(rng, 700, 0)
	if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]bool)
	batches := 0
	err := tr.Leaves(func(leaf *PageView) bool {
		batches++
		if !leaf.Leaf() || leaf.Len() == 0 {
			t.Fatal("empty or internal batch")
		}
		for i := 0; i < leaf.Len(); i++ {
			seen[leaf.ItemID(i)] = true
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 700 {
		t.Fatalf("leaves covered %d items", len(seen))
	}
	if batches < 2 {
		t.Fatalf("expected multiple leaf batches, got %d", batches)
	}
}

// cellOf clips the unit square to the Voronoi cell of sites[i].
func cellOf(sites []geo.Point, i int) geo.Polygon {
	pg := geo.UnitSquare()
	for j, o := range sites {
		if j != i {
			pg = pg.Clip(geo.Bisector(sites[i], o))
		}
	}
	return pg
}

// SearchPolygon visits exactly the items Contains accepts, in the order
// the generic searchNode visited them before the containment box. The
// regions are the ones the NN search cuts: a pentagon, Voronoi cells, the
// intersections of cells of two site sets, and the slivers two adjacent
// cells of one set cut from each other — with items on the shared
// bisectors and at every cell vertex, where Contains's tolerance decides.
func TestSearchPolygonMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	tr := newTestTree(t, Config{PageSize: 512})
	items := randomItems(rng, 900, 0)
	add := func(p geo.Point) { items = append(items, Item{ID: int64(len(items)), Location: p}) }
	// The sliver of two neighbouring Voronoi cells: zero area along their
	// shared bisector, with items placed on it.
	a, b := geo.Point{X: 0.3, Y: 0.35}, geo.Point{X: 0.62, Y: 0.71}
	sliver, spare := geo.UnitSquare().Clip(geo.Bisector(a, b)).Vertices, []geo.Point(nil)
	geo.CutConvex(&sliver, &spare, geo.UnitSquare().Clip(geo.Bisector(b, a)))
	mid, dir := a.Mid(b), geo.Point{X: a.Y - b.Y, Y: b.X - a.X}
	for i := 0; i < 100; i++ {
		add(mid.Add(dir.Scale(float64(i-50) / 60)))
	}
	regions := []geo.Polygon{
		// A convex pentagon around the center.
		{Vertices: []geo.Point{
			{X: 0.3, Y: 0.2}, {X: 0.7, Y: 0.25}, {X: 0.8, Y: 0.6}, {X: 0.5, Y: 0.85}, {X: 0.2, Y: 0.55},
		}},
		{Vertices: sliver},
	}
	// Two site sets, as two feature sets: every cell of the first, and its
	// intersection with each cell of the second it meets. Items sit at
	// every vertex of a first-set cell and along its edges — its shared
	// bisectors, up to the rounding of a clipped vertex.
	setA, setB := make([]geo.Point, 12), make([]geo.Point, 9)
	for _, set := range [][]geo.Point{setA, setB} {
		for i := range set {
			set[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
		}
	}
	for i := range setA {
		cell := cellOf(setA, i)
		regions = append(regions, cell)
		vs := cell.Vertices
		for k, v := range vs {
			add(v)
			w := vs[(k+1)%len(vs)]
			for _, f := range []float64{0.25, 0.5, 0.75} {
				add(v.Add(w.Sub(v).Scale(f)))
			}
		}
		for j := range setA {
			if j != i { // zero area where the cells are neighbours, empty elsewhere
				if s := cell.IntersectConvex(cellOf(setA, j)); !s.IsEmpty() {
					regions = append(regions, s)
				}
			}
		}
		for j := range setB {
			if s := cell.IntersectConvex(cellOf(setB, j)); !s.IsEmpty() {
				regions = append(regions, s)
			}
		}
	}
	if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	visited := 0
	for r, pg := range regions {
		want := map[int64]bool{}
		for _, it := range items {
			if pg.Contains(it.Location) {
				want[it.ID] = true
			}
		}
		// The pentagon and the sliver hold items by construction; a cell
		// or an intersection may hold none.
		if r < 2 && len(want) == 0 {
			t.Fatalf("polygon %v: Contains accepts no item", pg.Vertices)
		}
		var ref, got []int64
		if err := tr.searchNode(func(rect geo.Rect, leaf bool) bool {
			if leaf {
				return pg.Contains(rect.Min)
			}
			return pg.IntersectsRect(rect)
		}, func(e Entry) bool { ref = append(ref, e.ItemID); return true }); err != nil {
			t.Fatal(err)
		}
		if err := tr.SearchPolygon(pg, func(e Entry) bool { got = append(got, e.ItemID); return true }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("polygon %v: visited %d items, the searchNode path %d", pg.Vertices, len(got), len(ref))
		}
		for k := range got {
			if got[k] != ref[k] {
				t.Fatalf("polygon %v: visit %d is item %d, the searchNode path's %d", pg.Vertices, k, got[k], ref[k])
			}
			if !want[got[k]] {
				t.Fatalf("polygon %v: visited item %d, which Contains rejects", pg.Vertices, got[k])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("polygon %v: visited %d items, Contains accepts %d", pg.Vertices, len(got), len(want))
		}
		visited += len(got)
	}
	if visited == 0 || len(regions) < 30 {
		t.Fatalf("%d regions visited %d items: the cases show nothing", len(regions), visited)
	}
	// Empty polygon visits nothing.
	if err := tr.SearchPolygon(geo.Polygon{}, func(Entry) bool {
		t.Fatal("must not visit")
		return false
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRootEntryAggregates(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 48, WithScore: true})
	items := randomItems(rng, 400, 48)
	if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	root, err := tr.RootEntry()
	if err != nil {
		t.Fatal(err)
	}
	// At this width the root's e.s is the top level of its score table.
	wantScore := 0.0
	wantKw := kwset.NewSet(48)
	for _, it := range items {
		wantScore = max(wantScore, LevelScore(Level(it.Score)))
		wantKw.UnionInPlace(it.Keywords)
		if !root.Rect.Contains(it.Location) {
			t.Fatal("root MBR does not contain item")
		}
	}
	if math.Abs(root.Score-wantScore) > 1e-12 {
		t.Errorf("root score %v, want %v", root.Score, wantScore)
	}
	if !root.Keywords.Equal(wantKw) {
		t.Error("root keyword summary != union of item keywords")
	}
}

func TestMixedBulkLoadTheInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 16, WithScore: true})
	items := randomItems(rng, 300, 16)
	if err := tr.BulkLoad(items[:200], hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	for _, it := range items[200:] {
		if err := tr.Insert(it); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 300 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	all, _ := tr.All()
	if len(all) != 300 {
		t.Fatalf("All = %d", len(all))
	}
}

func TestBufferPoolCountsNodeReads(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tr := newTestTree(t, Config{PageSize: 512, BufferPages: 2})
	if err := tr.BulkLoad(randomItems(rng, 2000, 0), hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	tr.Pool().ResetStats()
	_ = tr.RangeSearch(geo.Point{X: 0.5, Y: 0.5}, 0.05, func(Entry) bool { return true })
	s := tr.Pool().Stats()
	if s.LogicalReads == 0 {
		t.Fatal("no logical reads recorded")
	}
	if s.PhysicalReads == 0 {
		t.Fatal("tiny pool must incur physical reads")
	}
}

// Property: bulk loading with any key permutation preserves the item set
// and invariants.
func TestBulkLoadPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr, err := New(Config{PageSize: 256})
		if err != nil {
			return false
		}
		n := 50 + rng.Intn(200)
		items := randomItems(rng, n, 0)
		// Random (non-spatial) key still yields a valid tree.
		if err := tr.BulkLoad(items, func(it Item) uint64 { return uint64(it.ID * 2654435761) }); err != nil {
			return false
		}
		if tr.CheckInvariants() != nil {
			return false
		}
		all, err := tr.All()
		return err == nil && len(all) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMetaOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tr := newTestTree(t, Config{PageSize: 512, KeywordWidth: 16, WithScore: true})
	items := randomItems(rng, 600, 16)
	if err := tr.BulkLoad(items, hilbert2DKey); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(Config{
		PageSize: 512, KeywordWidth: 16, WithScore: true, Disk: tr.Config().Disk,
	}, tr.Meta())
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 600 || reopened.Height() != tr.Height() {
		t.Fatalf("meta mismatch: len=%d height=%d", reopened.Len(), reopened.Height())
	}
	if err := reopened.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Queries agree.
	center := geo.Point{X: 0.4, Y: 0.6}
	var a, b int
	_ = tr.RangeSearch(center, 0.2, func(Entry) bool { a++; return true })
	_ = reopened.RangeSearch(center, 0.2, func(Entry) bool { b++; return true })
	if a != b {
		t.Fatalf("range results differ: %d vs %d", a, b)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}, Meta{Height: 1}); err == nil {
		t.Fatal("Open without disk must fail")
	}
	tr := newTestTree(t, Config{PageSize: 512})
	disk := tr.Config().Disk
	if _, err := Open(Config{PageSize: 1024, Disk: disk}, tr.Meta()); err == nil {
		t.Fatal("page size mismatch must fail")
	}
	if _, err := Open(Config{Disk: disk}, Meta{Root: 9999, Height: 1}); err == nil {
		t.Fatal("out-of-range root must fail")
	}
	if _, err := Open(Config{Disk: disk}, Meta{Root: 0, Height: 0}); err == nil {
		t.Fatal("zero height must fail")
	}
}
