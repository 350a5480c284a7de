package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/rtree"
)

// newFeatureStream returns an unlensed stream over the group.
func newFeatureStream(g *index.FeatureGroup, q index.QueryKeywords) *featureStream {
	s := &featureStream{}
	s.init(g, q, lens{}, &Stats{})
	return s
}

// drainStream pulls every feature from a per-set stream.
func drainStream(t *testing.T, s *featureStream) []featureRef {
	t.Helper()
	var out []featureRef
	for {
		ref, done, err := s.next()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			return out
		}
		out = append(out, ref)
	}
}

// The stream must yield features in non-increasing preference score s(t),
// cover exactly the relevant features, and finish with the virtual ∅.
func TestFeatureStreamOrderAndCoverage(t *testing.T) {
	w := buildWorld(t, 500, 10, 400, 1, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 5; trial++ {
		q := w.randQuery(rng, 1, RangeScore)
		qk := index.QueryKeywords{Set: q.Keywords[0], Lambda: q.Lambda}
		s := newFeatureStream(w.engine.features[0], qk)
		refs := drainStream(t, s)
		if len(refs) == 0 {
			t.Fatal("stream yielded nothing")
		}
		last := refs[len(refs)-1]
		if !last.virtual || last.score != 0 {
			t.Fatal("stream must end with the virtual feature")
		}
		all, err := w.engine.features[0].Part(0).Tree().All()
		if err != nil {
			t.Fatal(err)
		}
		byID := make(map[int64]rtree.Entry, len(all))
		for _, e := range all {
			byID[e.ItemID] = e
		}
		prev := math.Inf(1)
		ids := make(map[int64]bool)
		for _, r := range refs[:len(refs)-1] {
			if r.virtual {
				t.Fatal("virtual feature before exhaustion")
			}
			if r.score > prev+1e-12 {
				t.Fatalf("scores not non-increasing: %v after %v", r.score, prev)
			}
			prev = r.score
			if ids[r.id] {
				t.Fatalf("feature %d emitted twice", r.id)
			}
			ids[r.id] = true
			// Emitted score and location must equal Definition 1 and the
			// indexed feature exactly.
			if want := index.Score(byID[r.id], qk); math.Abs(want-r.score) > 1e-12 {
				t.Fatalf("score %v, want %v", r.score, want)
			}
			if r.loc != byID[r.id].Point() {
				t.Fatalf("feature %d emitted at %v, indexed at %v", r.id, r.loc, byID[r.id].Point())
			}
		}
		// Coverage: exactly the relevant features.
		relevant := 0
		for _, e := range all {
			if e.Keywords.Intersects(qk.Set) {
				relevant++
				if !ids[e.ItemID] {
					t.Fatalf("relevant feature %d missing from stream", e.ItemID)
				}
			} else if ids[e.ItemID] {
				t.Fatalf("irrelevant feature %d emitted", e.ItemID)
			}
		}
		if relevant != len(ids) {
			t.Fatalf("stream emitted %d, want %d relevant", len(ids), relevant)
		}
	}
}

// An empty query keyword set makes everything irrelevant: the stream must
// yield only ∅.
func TestFeatureStreamEmptyQuery(t *testing.T) {
	w := buildWorld(t, 501, 10, 100, 1, 16, index.SRT, Options{})
	s := newFeatureStream(w.engine.features[0], index.QueryKeywords{Set: kwset.NewSet(16), Lambda: 0.5})
	refs := drainStream(t, s)
	if len(refs) != 1 || !refs[0].virtual {
		t.Fatalf("got %d refs, want just ∅", len(refs))
	}
	// A second next() after exhaustion keeps reporting done.
	if _, done, err := s.next(); err != nil || !done {
		t.Fatal("stream must stay exhausted")
	}
}

// The stream must agree with the inverted-index relevance oracle.
func TestFeatureStreamMatchesInvertedIndex(t *testing.T) {
	w := buildWorld(t, 502, 10, 300, 1, 16, index.IR2, Options{})
	rng := rand.New(rand.NewSource(503))
	q := w.randQuery(rng, 1, RangeScore)
	qk := index.QueryKeywords{Set: q.Keywords[0], Lambda: q.Lambda}
	s := newFeatureStream(w.engine.features[0], qk)
	refs := drainStream(t, s)
	got := make(map[int64]bool)
	for _, r := range refs {
		if !r.virtual {
			got[r.id] = true
		}
	}
	if len(got) == 0 {
		t.Skip("query matched nothing")
	}
	all, err := w.engine.features[0].Part(0).Tree().All()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range all {
		if e.Keywords.Intersects(qk.Set) != got[e.ItemID] {
			t.Fatalf("stream and direct relevance disagree for %d", e.ItemID)
		}
	}
}

// Seen through a lens the stream is Algorithm 2: for both index kinds and a
// group of one part or three, the first
// emission under the range and the influence lens (computeScore) is the
// brute-force τ_i(p), and the batch lens (batchRangeScores) gives every
// object of an object-tree leaf the score the range lens gives it alone.
func TestLensedStreamIsComputeScore(t *testing.T) {
	const vocabW = 16
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		for _, nparts := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/parts=%d", kind, nparts), func(t *testing.T) {
				rng := rand.New(rand.NewSource(601))
				w := lensWorld(t, rng, vocabW, nparts, index.Options{
					Kind: kind, VocabWidth: vocabW, PageSize: 1024})
				feats, err := w.engine.allFeatures()
				if err != nil {
					t.Fatal(err)
				}
				e := w.engine.session()
				defer w.engine.releaseSession(e)
				for trial := 0; trial < 4; trial++ {
					q := w.randQuery(rng, 1, RangeScore)
					for _, q.Variant = range []Variant{RangeScore, InfluenceScore} {
						for i := 0; i < 25; i++ {
							p := randPoint(rng)
							got, err := e.computeScore(0, &q, p, &Stats{})
							if err != nil {
								t.Fatal(err)
							}
							if want := e.exactScoreOf(q, p, feats); math.Abs(got-want) > 1e-12 {
								t.Fatalf("%v lens at %v: first emission %v, brute force %v", q.Variant, p, got, want)
							}
						}
					}
					q.Variant = RangeScore
					err := e.objects[0].Tree().Leaves(func(leaf *rtree.PageView) bool {
						batch := e.scratchBatch(leaf.Len())
						for i := range batch {
							batch[i].id, batch[i].loc = leaf.ItemID(i), leaf.Point(i)
						}
						if err := e.batchRangeScores(0, &q, batch, &Stats{}); err != nil {
							t.Fatal(err)
						}
						for _, o := range batch {
							// The batch's pulls are over before the scratch
							// stream is re-initialized for one object.
							alone, err := e.computeScore(0, &q, o.loc, &Stats{})
							if err != nil {
								t.Fatal(err)
							}
							if o.sum != alone {
								t.Fatalf("object %d: batch lens %v, range lens %v", o.id, o.sum, alone)
							}
						}
						return true
					})
					if err != nil {
						t.Fatal(err)
					}
				}
			})
		}
	}
}

// lensWorld builds an engine over 150 objects and one feature set of 300
// features dealt round-robin into nparts index parts.
func lensWorld(t *testing.T, rng *rand.Rand, vocabW, nparts int, opts index.Options) *testWorld {
	t.Helper()
	objs := make([]index.Object, 150)
	for i := range objs {
		objs[i] = index.Object{ID: int64(i), Location: randPoint(rng)}
	}
	oidx, err := index.BuildObjectIndex(objs, index.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	feats := make([][]index.Feature, nparts)
	for i := 0; i < 300; i++ {
		kw := kwset.NewSet(vocabW)
		for j := 0; j < 1+rng.Intn(3); j++ {
			kw.Add(rng.Intn(vocabW))
		}
		feats[i%nparts] = append(feats[i%nparts], index.Feature{
			ID: int64(i), Location: randPoint(rng), Score: rng.Float64(), Keywords: kw})
	}
	parts := make([]*index.FeatureIndex, nparts)
	for i := range parts {
		if parts[i], err = index.BuildFeatureIndex(feats[i], opts); err != nil {
			t.Fatal(err)
		}
	}
	g, err := index.NewFeatureGroup(parts...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineOverParts([]*index.ObjectIndex{oidx}, 0, []*index.FeatureGroup{g}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{engine: eng, vocabW: vocabW}
}

// TestExcludeHiddenFromEveryReader, the engine's case. The stream: over a
// part behind WithExclude it emits exactly the live relevant features —
// under SRT and IR² — and reading past the tombstones leaves the canonical
// part whole. The loops that read object and feature pages through their
// views — topKInfluence, voronoiCell, groupAscendDistance, the range and
// polygon object probes and batched STDS's leaves — answer every variant
// under both algorithms over object and feature parts behind WithExclude
// exactly as the brute force over an engine built from the live items
// alone does.
func TestExcludeHiddenFromEveryReader(t *testing.T) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		t.Run(kind.String()+"/loops", func(t *testing.T) {
			w := buildWorld(t, 530, 300, 240, 2, 16, kind, Options{})
			hidden, live := excludeWorlds(t, w, kind)
			rng := rand.New(rand.NewSource(531))
			for _, v := range []Variant{RangeScore, InfluenceScore, NearestNeighborScore} {
				for trial := 0; trial < 6; trial++ {
					q := w.randQuery(rng, 2, v)
					want, err := live.BruteForce(q)
					if err != nil {
						t.Fatal(err)
					}
					for name, run := range map[string]func(Query) ([]Result, Stats, error){
						"STPS": hidden[0].STPS, "STDS": hidden[0].STDS, "batched STDS": hidden[1].STDS,
					} {
						got, _, err := run(q)
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("%s %v trial %d: over tombstones %v\nlive items alone %v", name, v, trial, got, want)
						}
					}
				}
			}
		})
		t.Run(kind.String(), func(t *testing.T) {
			w := buildWorld(t, 520, 10, 600, 1, 16, kind, Options{})
			part := w.engine.features[0].Part(0)
			all, err := part.Tree().All()
			if err != nil {
				t.Fatal(err)
			}
			dead := map[int64]struct{}{}
			for i := 0; i < len(all); i += 3 {
				dead[all[i].ItemID] = struct{}{}
			}
			g, err := index.NewFeatureGroup(part.WithExclude(dead, len(dead)))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(521))
			for trial := 0; trial < 5; trial++ {
				q := w.randQuery(rng, 1, RangeScore)
				qk := index.QueryKeywords{Set: q.Keywords[0], Lambda: q.Lambda}
				s := newFeatureStream(g, qk)
				got := map[int64]bool{}
				for _, r := range drainStream(t, s) {
					if !r.virtual {
						got[r.id] = true
					}
				}
				want := 0
				for _, e := range all {
					_, isDead := dead[e.ItemID]
					switch live := e.Keywords.Intersects(qk.Set) && !isDead; {
					case live && !got[e.ItemID]:
						t.Fatalf("live relevant feature %d missing from the stream", e.ItemID)
					case live:
						want++
					case got[e.ItemID]:
						t.Fatalf("feature %d emitted (tombstoned: %v)", e.ItemID, isDead)
					}
				}
				if want == 0 || len(got) != want {
					t.Fatalf("stream emitted %d features, want %d", len(got), want)
				}
			}
			after, err := part.Tree().All()
			if err != nil {
				t.Fatal(err)
			}
			if len(after) != len(all) {
				t.Fatalf("the canonical part shows %d of %d features after the filtered reads", len(after), len(all))
			}
		})
	}
}

// excludeWorlds hides every fourth object and every fifth feature of each
// set of w behind WithExclude, and returns two engines over the hidden
// parts — unbatched and batched STDS — and one built from the live items
// alone.
func excludeWorlds(t *testing.T, w *testWorld, kind index.Kind) (hidden [2]*Engine, live *Engine) {
	t.Helper()
	objs, err := w.engine.allObjects()
	if err != nil {
		t.Fatal(err)
	}
	deadObj := map[int64]struct{}{}
	var liveObjs []index.Object
	for i, e := range objs {
		if i%4 == 0 {
			deadObj[e.ItemID] = struct{}{}
		} else {
			liveObjs = append(liveObjs, index.Object{ID: e.ItemID, Location: e.Point()})
		}
	}
	groups := make([]*index.FeatureGroup, len(w.engine.features))
	liveFeats := make([]*index.FeatureIndex, len(w.engine.features))
	for set, g := range w.engine.features {
		part := g.Part(0)
		all, err := part.Tree().All()
		if err != nil {
			t.Fatal(err)
		}
		dead := map[int64]struct{}{}
		var feats []index.Feature
		for i, e := range all {
			if i%5 == 0 {
				dead[e.ItemID] = struct{}{}
			} else {
				feats = append(feats, index.Feature{ID: e.ItemID, Location: e.Point(), Score: e.Score, Keywords: e.Keywords})
			}
		}
		if groups[set], err = index.NewFeatureGroup(part.WithExclude(dead, len(dead))); err != nil {
			t.Fatal(err)
		}
		if liveFeats[set], err = index.BuildFeatureIndex(feats, index.Options{Kind: kind, VocabWidth: w.vocabW, PageSize: 1024}); err != nil {
			t.Fatal(err)
		}
	}
	objPart := []*index.ObjectIndex{w.engine.objects[0].WithExclude(deadObj, len(deadObj))}
	for i, opts := range []Options{{}, {BatchSTDS: true}} {
		if hidden[i], err = NewEngineOverParts(objPart, 0, groups, opts); err != nil {
			t.Fatal(err)
		}
	}
	liveObjIdx, err := index.BuildObjectIndex(liveObjs, index.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if live, err = NewEngine(liveObjIdx, liveFeats, Options{}); err != nil {
		t.Fatal(err)
	}
	return hidden, live
}
