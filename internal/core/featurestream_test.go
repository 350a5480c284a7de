package core

import (
	"math"
	"math/rand"
	"testing"

	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/rtree"
)

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
		s, err := newFeatureStream(w.engine.features[0], qk)
		if err != nil {
			t.Fatal(err)
		}
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
	s, err := newFeatureStream(w.engine.features[0], index.QueryKeywords{Set: kwset.NewSet(16), Lambda: 0.5})
	if err != nil {
		t.Fatal(err)
	}
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
	s, err := newFeatureStream(w.engine.features[0], qk)
	if err != nil {
		t.Fatal(err)
	}
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
