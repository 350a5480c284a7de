package index

import (
	"bytes"
	"cmp"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/kwset"
	"stpq/internal/rtree"
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
	written := slices.Clone(buf.Bytes())
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
	var again bytes.Buffer
	if _, err := reopened.Save(&again); err != nil || !bytes.Equal(again.Bytes(), written) {
		t.Fatalf("the reopened index saves other pages than it was opened from: %v", err)
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

// A dump an older version wrote opens rebuilt in the current layout. The
// dumps under testdata were written with the inner slots of those versions
// — e.s and e.W; e.s, e.W and a signature of one bit a key without tokens;
// a score table and such a signature — over the features randomFeatures
// draws from seed 60. Each opens with score tables and a signature with
// tokens on its inner slots, holds the same items, gives a fresh build's
// answers, and Saves a Meta of the current layout.
func TestOpenFeatureIndexRebuildsOlderLayouts(t *testing.T) {
	features := randomFeatures(rand.New(rand.NewSource(60)), 400, 32)
	for _, name := range []string{"bitmap", "sig1", "sig1-levels"} {
		t.Run(name, func(t *testing.T) {
			js, err := os.ReadFile("testdata/legacy-" + name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var meta Meta
			if err := json.Unmarshal(js, &meta); err != nil {
				t.Fatal(err)
			}
			if meta.PairTokens {
				t.Fatalf("%s records the current layout", js)
			}
			idx, err := OpenFile("testdata/legacy-"+name+".pages", meta, 64, OpenFeatureIndex)
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Tree().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			root, err := idx.Tree().View(idx.Tree().Root())
			if err != nil {
				t.Fatal(err)
			}
			if root.Leaf() {
				t.Fatal("the rebuilt root is a leaf")
			}
			all, err := idx.All()
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(features) || idx.Len() != len(features) || idx.Kind() != meta.Kind {
				t.Fatalf("%d items, Len %d, kind %v; want %d of kind %v", len(all), idx.Len(), idx.Kind(), len(features), meta.Kind)
			}
			for _, e := range all {
				f := features[e.ItemID]
				if e.Point() != f.Location || e.Score != f.Score || !e.Keywords.Equal(f.Keywords) {
					t.Fatalf("item %d: (%v, %v, %v), written as (%v, %v, %v)", e.ItemID, e.Point(), e.Score, e.Keywords, f.Location, f.Score, f.Keywords)
				}
			}
			fresh, err := BuildFeatureIndex(features, Options{Kind: meta.Kind, VocabWidth: 32, PageSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			// Score tables and a signature with tokens: a fresh build's pages.
			var rebuilt, built bytes.Buffer
			if _, err := idx.Save(&rebuilt); err != nil {
				t.Fatal(err)
			}
			if _, err := fresh.Save(&built); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rebuilt.Bytes(), built.Bytes()) {
				t.Fatal("the rebuilt index's pages are not a fresh build's")
			}
			rng := rand.New(rand.NewSource(61))
			for trial := 0; trial < 20; trial++ {
				q := QueryKeywords{Set: kwset.SetFromWords(32, rng.Intn(32), rng.Intn(32)), Lambda: rng.Float64()}
				if got, want := topFeatures(t, idx, q, 10), topFeatures(t, fresh, q, 10); !reflect.DeepEqual(got, want) {
					t.Fatalf("query %v: %v, a fresh build %v", q.Set, got, want)
				}
			}
			saved, err := idx.Save(io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if saved.PairBits != rtree.PairSigBits || saved.LevelBits != rtree.ScoreLevelBits || !saved.PairTokens {
				t.Fatalf("re-saved as %+v", saved)
			}
		})
	}
}

// topFeatures returns the ids of the k best features of idx for q, best
// first and by id among equals, by a best-first search on Bound.
func topFeatures(t *testing.T, idx *FeatureIndex, q QueryKeywords, k int) []int64 {
	t.Helper()
	type item struct {
		bound float64
		e     rtree.Entry
	}
	tr := idx.Tree()
	root, err := tr.RootEntry()
	if err != nil {
		t.Fatal(err)
	}
	queue := []item{{Bound(root, q), root}}
	var out []int64
	for len(queue) > 0 && len(out) < k {
		slices.SortFunc(queue, func(a, b item) int {
			if c := cmp.Compare(b.bound, a.bound); c != 0 || !a.e.Leaf || !b.e.Leaf {
				return c
			}
			return cmp.Compare(a.e.ItemID, b.e.ItemID)
		})
		top := queue[0]
		queue = queue[1:]
		if top.e.Leaf {
			out = append(out, top.e.ItemID)
			continue
		}
		v, err := tr.View(top.e.Child)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < v.Len(); i++ {
			var e rtree.Entry
			var arena []uint64
			v.Entry(i, &e, &arena)
			queue = append(queue, item{Bound(e, q), e})
		}
	}
	return out
}

// A Meta that records an inner-slot layout no version wrote is refused.
func TestOpenFeatureIndexRejectsUnwrittenLayouts(t *testing.T) {
	for _, m := range []Meta{
		{VocabWidth: 32, WithScore: true, PairBits: 256},
		{VocabWidth: 32, WithScore: true, LevelBits: 8, PairBits: rtree.PairSigBits},
		{VocabWidth: 32, WithScore: true, LevelBits: rtree.ScoreLevelBits},
		{VocabWidth: 300, WithScore: true, LevelBits: rtree.ScoreLevelBits, PairBits: rtree.PairSigBits},
		{VocabWidth: 32, WithScore: true, PairBits: rtree.PairSigBits, PairTokens: true},
		{VocabWidth: 300, WithScore: true, PairBits: rtree.PairSigBits, LevelBits: rtree.ScoreLevelBits, PairTokens: true},
		{VocabWidth: 32, WithScore: true, PairTokens: true},
		{VocabWidth: 32, PairBits: rtree.PairSigBits, LevelBits: rtree.ScoreLevelBits, PairTokens: true},
	} {
		m.PageSize = 512
		if _, err := OpenFeatureIndex(bytes.NewReader(nil), m, 4); err == nil || !strings.Contains(err.Error(), "no version wrote") {
			t.Errorf("%+v: %v", m, err)
		}
	}
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
