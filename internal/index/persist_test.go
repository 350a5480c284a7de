package index

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/kwset"
	"stpq/internal/rtree"
	"stpq/internal/storage"
)

func TestFeatureIndexSaveOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	features := randomFeatures(rng, 800, 32)
	idx, err := BuildFeatureIndex(features, Options{Kind: SRT, VocabWidth: 32, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	meta, err := idx.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Kind != SRT || meta.VocabWidth != 32 || meta.PageSize != 512 || meta.PairBits != rtree.PairSigBits || meta.LevelBits != rtree.ScoreLevelBits || !meta.PairTokens {
		t.Fatalf("meta = %+v", meta)
	}
	reopened, err := OpenFeatureIndex(&buf, meta, 64)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 800 || reopened.Kind() != SRT {
		t.Fatalf("reopened shape: len=%d kind=%v", reopened.Len(), reopened.Kind())
	}
	if err := reopened.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if cfg := reopened.Tree().Config(); cfg.LevelBits != rtree.ScoreLevelBits || cfg.PairBits != rtree.PairSigBits || !cfg.PairTokens {
		t.Fatalf("reopened with levels %d, pairs %d and tokens %t", cfg.LevelBits, cfg.PairBits, cfg.PairTokens)
	}
	// Same bounds and scores on a probe query.
	q := QueryKeywords{Set: kwset.SetFromWords(32, 3, 7), Lambda: 0.5}
	a, err := idx.Tree().RootEntry()
	if err != nil {
		t.Fatal(err)
	}
	b, err := reopened.Tree().RootEntry()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(Bound(a, q)-Bound(b, q)) > 1e-12 {
		t.Fatal("root bounds differ after reopen")
	}
	// The reopened index keeps every feature's keywords and score.
	want := make(map[int64]Feature, len(features))
	for _, f := range features {
		want[f.ID] = f
	}
	all, err := reopened.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all[:20] {
		f := want[e.ItemID]
		if !e.Keywords.Equal(f.Keywords) || e.Score != f.Score {
			t.Fatalf("feature %d changed after reopen", e.ItemID)
		}
		if s := (1-q.Lambda)*f.Score + q.Lambda*f.Keywords.Jaccard(q.Set); math.Abs(q.Score(&e)-s) > 1e-12 {
			t.Fatal("score mismatch after reopen")
		}
	}
}

// A dump written before the score tables — inner slots with e.s, e.W and a
// pair signature, a Meta without levelBits — reopens with that layout:
// every inner slot decodes to what was written, the invariants hold, and no
// inner page is read as a table.
func TestOpenFeatureIndexWithoutLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	features := randomFeatures(rng, 800, 32)
	items := make([]rtree.Item, len(features))
	for i, f := range features {
		items[i] = rtree.Item{ID: f.ID, Location: f.Location, Score: f.Score, Keywords: f.Keywords}
	}
	old, err := rtree.New(rtree.Config{PageSize: 512, KeywordWidth: 32, WithScore: true, PairBits: rtree.PairSigBits})
	if err != nil {
		t.Fatal(err)
	}
	if err := old.BulkLoad(items, (&FeatureIndex{kind: SRT, opts: Options{CurveBits: 16}}).sortKey()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.DumpDisk(old.Config().Disk, &buf); err != nil {
		t.Fatal(err)
	}
	meta := Meta{Tree: old.Meta(), Kind: SRT, VocabWidth: 32, PageSize: 512, WithScore: true, PairBits: rtree.PairSigBits}
	if js, err := json.Marshal(meta); err != nil || bytes.Contains(js, []byte("levelBits")) {
		t.Fatalf("a Meta without score tables marshals to %s, %v", js, err)
	}
	reopened, err := OpenFeatureIndex(&buf, meta, 64)
	if err != nil {
		t.Fatal(err)
	}
	if cfg := reopened.Tree().Config(); cfg.LevelBits != 0 || cfg.PairBits != rtree.PairSigBits || cfg.PairTokens {
		t.Fatalf("reopened with levels %d, pairs %d and tokens %t", cfg.LevelBits, cfg.PairBits, cfg.PairTokens)
	}
	if err := reopened.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	root := reopened.Tree().Root()
	v, err := reopened.Tree().View(root)
	if err != nil {
		t.Fatal(err)
	}
	if v.Leaf() || v.Levelled() {
		t.Fatalf("root leaf=%v, read as a table %v", v.Leaf(), v.Levelled())
	}
	want, err := old.Node(root)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := reopened.Tree().Node(root); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("root decodes to %+v, %v; was written as %+v", got, err, want)
	}
}

// A dump written before the tokens — score tables and one-hash pair
// signatures, a Meta without pairTokens — reopens with that scheme and is
// probed the old way: the invariants hold under it, and every internal
// slot of the reopened tree is priced as the tree that wrote it prices it,
// with no price point asking for a second keyword. Probed as a tree with
// tokens, the same pages would make some point ask for one, though no
// feature below lacks its token — there are none in the dump — which is
// what would make that probe unsound.
func TestOpenFeatureIndexWithoutTokens(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	features := randomFeatures(rng, 800, 32)
	items := make([]rtree.Item, len(features))
	for i, f := range features {
		items[i] = rtree.Item{ID: f.ID, Location: f.Location, Score: f.Score, Keywords: f.Keywords}
	}
	cfg := rtree.Config{PageSize: 512, KeywordWidth: 32, WithScore: true, PairBits: rtree.PairSigBits, LevelBits: rtree.ScoreLevelBits}
	old, err := rtree.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := old.BulkLoad(items, (&FeatureIndex{kind: SRT, opts: Options{CurveBits: 16}}).sortKey()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := storage.DumpDisk(old.Config().Disk, &buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.Bytes()
	meta := Meta{Tree: old.Meta(), Kind: SRT, VocabWidth: 32, PageSize: 512, WithScore: true, PairBits: rtree.PairSigBits, LevelBits: rtree.ScoreLevelBits}
	if js, err := json.Marshal(meta); err != nil || bytes.Contains(js, []byte("pairTokens")) {
		t.Fatalf("a Meta without tokens marshals to %s, %v", js, err)
	}
	reopened, err := OpenFeatureIndex(bytes.NewReader(dump), meta, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c := reopened.Tree().Config(); c.PairTokens || c.LevelBits != rtree.ScoreLevelBits {
		t.Fatalf("reopened with tokens %t and levels %d", c.PairTokens, c.LevelBits)
	}
	if err := reopened.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	withTokens := meta
	withTokens.PairTokens = true
	misread, err := OpenFeatureIndex(bytes.NewReader(dump), withTokens, 64)
	if err != nil {
		t.Fatal(err)
	}
	asked := 0
	for k := 0; k < 32; k++ {
		q := kwset.SetFromWords(32, k)
		want, _ := fronts(t, old, q)
		got, _ := fronts(t, reopened.Tree(), q)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("keyword %d: the reopened tree prices %v, the tree that wrote it %v", k, got, want)
		}
		_, n := fronts(t, misread.Tree(), q)
		asked += n
		if _, n := fronts(t, reopened.Tree(), q); n != 0 {
			t.Fatalf("keyword %d: %d price points ask for a second keyword on a tree without tokens", k, n)
		}
	}
	if asked == 0 {
		t.Fatal("read as a tree with tokens, no point asks for a second keyword: the test shows nothing")
	}
}

// fronts returns the price points of every inner slot of tr's root for the
// query q, and how many ask for more keywords than query keywords.
func fronts(t *testing.T, tr *rtree.Tree, q kwset.Set) (out [][]rtree.LevelCount, more int) {
	t.Helper()
	v, err := tr.View(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	var lq rtree.LevelQuery
	lq.Reset(q.WordsBits())
	for i := v.NextLevels(0, &lq); i < v.Len(); i = v.NextLevels(i+1, &lq) {
		out = append(out, append([]rtree.LevelCount(nil), lq.Front()...))
		for _, p := range lq.Front() {
			if p.Least > p.Count {
				more++
			}
		}
	}
	return out, more
}

func TestObjectIndexSaveOpenRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	objs := make([]Object, 500)
	for i := range objs {
		objs[i] = Object{ID: int64(i), Location: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
	}
	idx, err := BuildObjectIndex(objs, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	meta, err := idx.Save(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenObjectIndex(&buf, meta, 64)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Len() != 500 {
		t.Fatalf("Len = %d", reopened.Len())
	}
	center := geo.Point{X: 0.5, Y: 0.5}
	var a, b int
	_ = idx.Tree().RangeSearch(center, 0.2, func(rtree.Entry) bool { a++; return true })
	_ = reopened.Tree().RangeSearch(center, 0.2, func(rtree.Entry) bool { b++; return true })
	if a != b || a == 0 {
		t.Fatalf("range results differ after reopen: %d vs %d", a, b)
	}
	// Stats flow through the reopened pool.
	reopened.ResetStats()
	_, _ = reopened.Tree().All()
	if reopened.Stats().LogicalReads == 0 {
		t.Fatal("stats not recorded after reopen")
	}
}

func TestOpenFeatureIndexRejectsGarbage(t *testing.T) {
	if _, err := OpenFeatureIndex(bytes.NewReader([]byte("nope")), Meta{}, 4); err == nil {
		t.Fatal("expected error on bad dump")
	}
	if _, err := OpenObjectIndex(bytes.NewReader(nil), Meta{}, 4); err == nil {
		t.Fatal("expected error on empty dump")
	}
}
