package index

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"stpq/internal/geo"
	"stpq/internal/kwset"
	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// randomFeatures builds n features over a width-w vocabulary.
func randomFeatures(rng *rand.Rand, n, w int) []Feature {
	fs := make([]Feature, n)
	for i := range fs {
		kw := kwset.NewSet(w)
		for j := 0; j < 1+rng.Intn(3); j++ {
			kw.Add(rng.Intn(w))
		}
		fs[i] = Feature{
			ID:       int64(i),
			Location: geo.Point{X: rng.Float64(), Y: rng.Float64()},
			Score:    rng.Float64(),
			Keywords: kw,
		}
	}
	return fs
}

func TestBuildFeatureIndexBothKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	features := randomFeatures(rng, 2000, 64)
	for _, kind := range []Kind{SRT, IR2} {
		idx, err := BuildFeatureIndex(features, Options{Kind: kind, VocabWidth: 64, PageSize: 1024})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if idx.Len() != 2000 {
			t.Fatalf("%v: Len = %d", kind, idx.Len())
		}
		if idx.Kind() != kind {
			t.Fatalf("Kind = %v", idx.Kind())
		}
		if err := idx.Tree().CheckInvariants(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestBuildFeatureIndexRequiresVocab(t *testing.T) {
	if _, err := BuildFeatureIndex(nil, Options{}); err == nil {
		t.Fatal("expected error for missing VocabWidth")
	}
}

func TestKindString(t *testing.T) {
	if SRT.String() != "SRT" || IR2.String() != "IR2" {
		t.Error("Kind.String mismatch")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind string")
	}
}

// Definition 1 check against the paper's worked example (Section 3):
// W = {italian, pizza}, λ = 0.5; Ontario's Pizza (s=0.8, {pizza,italian})
// scores 0.9; Beijing Restaurant (s=0.6, {chinese,asian}) scores 0.3.
func TestScorePaperExample(t *testing.T) {
	v := kwset.NewVocabulary()
	q := QueryKeywords{Set: v.SetOf("italian", "pizza"), Lambda: 0.5}
	ontario := rtree.Entry{Leaf: true, Score: 0.8, Keywords: v.SetOf("pizza", "italian")}
	beijing := rtree.Entry{Leaf: true, Score: 0.6, Keywords: v.SetOf("chinese", "asian")}
	if got := Score(ontario, q); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("Ontario score = %v, want 0.9", got)
	}
	if got := Score(beijing, q); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("Beijing score = %v, want 0.3", got)
	}
}

// Section 3 second example: Royal Coffee Shop (s=0.9,
// {muffins,croissants,espresso}) with W = {espresso, muffins}, λ = 0.5:
// Jaccard = 2/3, s = 0.45 + 0.5·2/3 ≈ 0.78333.
func TestScorePaperCoffeeExample(t *testing.T) {
	v := kwset.NewVocabulary()
	q := QueryKeywords{Set: v.SetOf("espresso", "muffins"), Lambda: 0.5}
	royal := rtree.Entry{Leaf: true, Score: 0.9, Keywords: v.SetOf("muffins", "croissants", "espresso")}
	want := 0.45 + 0.5*(2.0/3.0)
	if got := Score(royal, q); math.Abs(got-want) > 1e-9 {
		t.Errorf("Royal score = %v, want %v", got, want)
	}
}

// The fundamental contract of Section 4.1: for every node entry e and
// every feature t stored below it, Bound(e) ≥ s(t). Verified on real trees
// of both kinds by walking every root-to-leaf path.
func TestBoundDominatesDescendants(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	features := randomFeatures(rng, 1500, 32)
	v := kwset.NewVocabulary()
	_ = v
	for _, kind := range []Kind{SRT, IR2} {
		idx, err := BuildFeatureIndex(features, Options{Kind: kind, VocabWidth: 32, PageSize: 512})
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 10; trial++ {
			q := QueryKeywords{Set: kwset.SetFromWords(32, rng.Intn(32), rng.Intn(32), rng.Intn(32)), Lambda: rng.Float64()}
			if err := checkBound(t, idx, idx.Tree().Root(), q, math.Inf(1)); err != nil {
				t.Fatalf("%v: %v", kind, err)
			}
		}
	}
}

// checkBound walks the subtree asserting every entry's bound is at most
// the parent bound and leaf scores respect ancestor bounds.
func checkBound(t *testing.T, idx *FeatureIndex, pid storage.PageID, q QueryKeywords, parentBound float64) error {
	n, err := idx.Tree().Node(pid)
	if err != nil {
		return err
	}
	for _, e := range n.Entries {
		b := Bound(e, q)
		if b > parentBound+1e-9 {
			t.Fatalf("bound %v exceeds parent bound %v", b, parentBound)
		}
		if !e.Leaf {
			if err := checkBound(t, idx, e.Child, q, b); err != nil {
				return err
			}
		}
	}
	return nil
}

// The feature stream prices a slot of a page without score tables from the
// counts its keyword scan takes and its score in place (BoundCounts); the
// readers that decode price the Entry (Score, Bound). For every measure,
// on leaf slots and, above rtree.MaxLevelWidth, internal ones, at keyword
// widths within, at and across word boundaries and with query sets
// narrower and wider than the tree — bits beyond its width included — the
// two agree to the bit, and a leaf's Jaccard price is the one
// kwset.Set.Jaccard gives. (A page with score tables is priced from its
// price points instead, which rtree's tests hold to the decoded slot.)
func TestBoundCountsMatchesEntry(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, width := range []int{64, 100, 128, 200, rtree.MaxLevelWidth + 44} {
		idx, err := BuildFeatureIndex(randomFeatures(rng, 800, width), Options{VocabWidth: width, PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		var pages []rtree.PageView
		var walk func(storage.PageID)
		walk = func(id storage.PageID) {
			v, err := idx.Tree().View(id)
			if err != nil {
				t.Fatal(err)
			}
			if v.Leaf() || width > rtree.MaxLevelWidth { // no score tables
				pages = append(pages, v)
			}
			for i := 0; !v.Leaf() && i < v.Len(); i++ {
				walk(v.Child(i))
			}
		}
		walk(idx.Tree().Root())
		var priced [2]int // internal, leaf
		var arena []uint64
		for _, qWidth := range []int{width / 3, width, width + 70} {
			for trial := 0; trial < 8; trial++ {
				set := kwset.NewSet(qWidth)
				for j := 0; j < 1+rng.Intn(6); j++ {
					set.Add(rng.Intn(qWidth))
				}
				words, wc := set.WordsBits(), set.Count()
				for _, sim := range []Similarity{Jaccard, Dice, Cosine, Overlap} {
					q := QueryKeywords{Set: set, Lambda: rng.Float64(), Sim: sim}
					for k := range pages {
						v := &pages[k]
						for i, inter, count := v.NextCounted(0, words); i < v.Len(); i, inter, count = v.NextCounted(i+1, words) {
							var e rtree.Entry
							arena = arena[:0]
							v.Entry(i, &e, &arena)
							got, want := q.BoundCounts(v.Score(i), v.Leaf(), inter, count, wc), q.Bound(&e)
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("width %d, %v, query %v, slot %+v: counted %v, Bound %v", width, sim, set, e, got, want)
							}
							if e.Leaf && math.Float64bits(q.Score(&e)) != math.Float64bits(want) {
								t.Fatalf("width %d, %v: leaf Score %v, Bound %v", width, sim, q.Score(&e), want)
							}
							if e.Leaf && sim == Jaccard && math.Float64bits(want) != math.Float64bits((1-q.Lambda)*e.Score+q.Lambda*e.Keywords.Jaccard(set)) {
								t.Fatalf("width %d: leaf Jaccard price %v, kwset.Jaccard says otherwise", width, want)
							}
							if e.Leaf {
								priced[1]++
							} else {
								priced[0]++
							}
						}
					}
				}
			}
		}
		if priced[0] == 0 && width > rtree.MaxLevelWidth || priced[1] == 0 {
			t.Fatalf("width %d: priced %d internal and %d leaf slots", width, priced[0], priced[1])
		}
	}
}

// SRT clustering must yield tighter average bounds than IR² for a textual
// query — the paper's core index claim (Section 4.2). We compare the mean
// root-child bound gap over random queries; SRT should not be worse.
func TestSRTGivesTighterBoundsThanIR2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Clustered scores/keywords make the effect visible.
	features := make([]Feature, 0, 4000)
	for c := 0; c < 40; c++ {
		base := rng.Intn(24)
		score := rng.Float64()
		for i := 0; i < 100; i++ {
			kw := kwset.NewSet(32)
			kw.Add(base + rng.Intn(8))
			features = append(features, Feature{
				ID:       int64(len(features)),
				Location: geo.Point{X: rng.Float64(), Y: rng.Float64()},
				Score:    math.Min(1, math.Max(0, score+0.05*rng.NormFloat64())),
				Keywords: kw,
			})
		}
	}
	srt, err := BuildFeatureIndex(features, Options{Kind: SRT, VocabWidth: 32, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	ir2, err := BuildFeatureIndex(features, Options{Kind: IR2, VocabWidth: 32, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	avgBound := func(idx *FeatureIndex, q QueryKeywords) float64 {
		n, err := idx.Tree().Node(idx.Tree().Root())
		if err != nil {
			t.Fatal(err)
		}
		sum, cnt := 0.0, 0
		var walk func(pid storage.PageID, depth int)
		walk = func(pid storage.PageID, depth int) {
			nd, err := idx.Tree().Node(pid)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range nd.Entries {
				if e.Leaf {
					continue
				}
				sum += Bound(e, q)
				cnt++
				if depth < 2 {
					walk(e.Child, depth+1)
				}
			}
		}
		_ = n
		walk(idx.Tree().Root(), 1)
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}
	var srtSum, ir2Sum float64
	for trial := 0; trial < 20; trial++ {
		q := QueryKeywords{Set: kwset.SetFromWords(32, rng.Intn(32), rng.Intn(32), rng.Intn(32)), Lambda: 0.5}
		srtSum += avgBound(srt, q)
		ir2Sum += avgBound(ir2, q)
	}
	if srtSum > ir2Sum*1.02 {
		t.Errorf("SRT mean bound %v should not exceed IR2 %v", srtSum/20, ir2Sum/20)
	}
}

// Relevant must be exact for leaves and conservative (no false negatives)
// for internal entries.
func TestRelevantConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	features := randomFeatures(rng, 800, 16)
	idx, err := BuildFeatureIndex(features, Options{Kind: SRT, VocabWidth: 16, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	q := QueryKeywords{Set: kwset.SetFromWords(16, 3), Lambda: 0.5}
	var walk func(pid storage.PageID)
	walk = func(pid storage.PageID) {
		n, err := idx.Tree().Node(pid)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range n.Entries {
			if e.Leaf {
				continue
			}
			hasRelevantLeaf := false
			var scan func(pid storage.PageID)
			scan = func(pid storage.PageID) {
				nd, _ := idx.Tree().Node(pid)
				for _, c := range nd.Entries {
					if c.Leaf {
						if q.Relevant(&c) {
							hasRelevantLeaf = true
						}
					} else {
						scan(c.Child)
					}
				}
			}
			scan(e.Child)
			if hasRelevantLeaf && !q.Relevant(&e) {
				t.Fatal("internal entry pruned a relevant descendant")
			}
			walk(e.Child)
		}
	}
	walk(idx.Tree().Root())
}

func TestFeatureIndexInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	features := randomFeatures(rng, 500, 16)
	idx, err := BuildFeatureIndex(features[:400], Options{Kind: SRT, VocabWidth: 16, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range features[400:] {
		if err := idx.Insert(f); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != 500 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if err := idx.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildObjectIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	objs := make([]Object, 1200)
	for i := range objs {
		objs[i] = Object{ID: int64(i), Location: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
	}
	idx, err := BuildObjectIndex(objs, Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1200 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if err := idx.Tree().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Range search sanity.
	got := 0
	_ = idx.Tree().RangeSearch(geo.Point{X: 0.5, Y: 0.5}, 0.1, func(rtree.Entry) bool { got++; return true })
	want := 0
	for _, o := range objs {
		if o.Location.Dist(geo.Point{X: 0.5, Y: 0.5}) <= 0.1 {
			want++
		}
	}
	if got != want {
		t.Fatalf("range got %d want %d", got, want)
	}
	if err := idx.Insert(Object{ID: 5000, Location: geo.Point{X: 0.2, Y: 0.2}}); err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 1201 {
		t.Error("insert did not grow object index")
	}
}

// Score and Bound stay within [0,1] for all λ (both t.s and sim are in
// [0,1]).
func TestScoreBoundRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const w = 24
		kw := kwset.NewSet(w)
		for i := 0; i < 1+rng.Intn(4); i++ {
			kw.Add(rng.Intn(w))
		}
		e := rtree.Entry{Leaf: rng.Intn(2) == 0, Score: rng.Float64(), Keywords: kw}
		q := QueryKeywords{Set: kwset.SetFromWords(w, rng.Intn(w), rng.Intn(w)), Lambda: rng.Float64()}
		s := Bound(e, q)
		return s >= 0 && s <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestStatsPlumbing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	idx, err := BuildFeatureIndex(randomFeatures(rng, 300, 8), Options{Kind: IR2, VocabWidth: 8, PageSize: 512, BufferPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	idx.ResetStats()
	if s := idx.Stats(); s.LogicalReads != 0 {
		t.Fatal("reset failed")
	}
	_, _ = idx.Tree().All()
	if s := idx.Stats(); s.LogicalReads == 0 {
		t.Fatal("stats not recorded")
	}
}

// All must return every feature with its own keyword set.
func TestAllRecoversKeywords(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	features := randomFeatures(rng, 300, 24)
	idx, err := BuildFeatureIndex(features, Options{Kind: SRT, VocabWidth: 24, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int64]kwset.Set)
	for _, f := range features {
		want[f.ID] = f.Keywords
	}
	all, err := idx.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(features) {
		t.Fatalf("All returned %d", len(all))
	}
	for _, e := range all {
		if !e.Keywords.Equal(want[e.ItemID]) {
			t.Fatalf("feature %d keywords corrupted", e.ItemID)
		}
	}
}

// A part whose location layer exists refuses Insert and Delete: the layer
// would go stale. A BeginMerge clone of it starts without one and takes
// both.
func TestMutatingABuiltLayerFails(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	feats := randomFeatures(rng, 300, 16)
	for _, kind := range []Kind{SRT, IR2} {
		x, err := BuildFeatureIndex(feats, Options{Kind: kind, VocabWidth: 16, PageSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Insert(feats[0]); err != nil {
			t.Fatalf("%v: insert before the layer: %v", kind, err)
		}
		if _, err := x.Session(&storage.Stats{}).Locations(); err != nil {
			t.Fatal(err)
		}
		if err := x.Insert(feats[1]); !errors.Is(err, ErrLocationsBuilt) {
			t.Errorf("%v: insert after the layer: %v, want ErrLocationsBuilt", kind, err)
		}
		if _, err := x.Delete(feats[2].ID, feats[2].Location); !errors.Is(err, ErrLocationsBuilt) {
			t.Errorf("%v: delete after the layer: %v, want ErrLocationsBuilt", kind, err)
		}
		clone, err := x.BeginMerge()
		if err != nil {
			t.Fatal(err)
		}
		if found, err := clone.Delete(feats[2].ID, feats[2].Location); err != nil || !found {
			t.Errorf("%v: delete on the clone: found %v, %v", kind, found, err)
		}
		if n := x.LocationBuilds(); n != 1 {
			t.Errorf("%v: %d layer builds through a session view, want 1", kind, n)
		}
	}
}

// The location layer holds every feature of the part, tombstoned or not,
// and a view's exclusion and session apply when it is read: a session
// charges the layer's pages to its accumulator, and the part's Stats count
// the layer's pool.
func TestLocationLayerViews(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	feats := randomFeatures(rng, 500, 16)
	x, err := BuildFeatureIndex(feats, Options{Kind: SRT, VocabWidth: 16, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	dead := map[int64]struct{}{feats[0].ID: {}, feats[7].ID: {}}
	var acct storage.Stats
	loc, err := x.WithExclude(dead, len(dead)).Session(&acct).Locations()
	if err != nil {
		t.Fatal(err)
	}
	before := x.Stats()
	seen := 0
	err = loc.Leaves(func(v *rtree.PageView) bool {
		for i := 0; i < v.Len(); i++ {
			if v.Visible(i) {
				seen++
			} else if _, ok := dead[v.ItemID(i)]; !ok {
				t.Errorf("item %d hidden", v.ItemID(i))
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(feats)-len(dead) {
		t.Errorf("%d visible locations, want %d", seen, len(feats)-len(dead))
	}
	if loc.Len() != len(feats) {
		t.Errorf("layer holds %d items, want %d", loc.Len(), len(feats))
	}
	if d := x.Stats().Sub(before); acct.LogicalReads == 0 || d.LogicalReads != acct.LogicalReads {
		t.Errorf("session charged %d reads, the part's pools counted %d", acct.LogicalReads, d.LogicalReads)
	}
}
