package index

import (
	"bytes"
	"math"
	"math/rand"
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
	if meta.Kind != SRT || meta.VocabWidth != 32 || meta.PageSize != 512 || meta.PairBits != rtree.PairSigBits {
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
