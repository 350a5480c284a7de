package stpq

// approx_test.go exercises the MinHash/LSH fast tier through the public
// API: approx mode at the top of the recall range must reproduce exact
// results on the paper's worked example, skip-verify mode must recover
// most of the exact top-k on random data while recording its pruning
// work in Stats, Explain must surface the chosen LSH parameters, and an
// index with exact keyword bitmaps must refuse approx mode.

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// approxRandomDB builds a 500-feature random dataset over a signature-file
// IR² index — the configuration where skip-verify has reads to skip.
func approxRandomDB(t *testing.T) (*DB, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	db := New(Config{IndexKind: IR2, SignatureBits: 8, PageSize: 1024})
	objs := make([]Object, 300)
	for i := range objs {
		objs[i] = Object{ID: int64(i), X: rng.Float64(), Y: rng.Float64()}
	}
	db.AddObjects(objs)
	words := []string{"pizza", "sushi", "tacos", "ramen", "bagels", "pho", "curry", "bbq",
		"noodles", "kebab", "falafel", "gyros", "paella", "dumplings", "waffles", "crepes"}
	feats := make([]Feature, 500)
	for i := range feats {
		feats[i] = Feature{
			ID: int64(i), X: rng.Float64(), Y: rng.Float64(), Score: rng.Float64(),
			Keywords: []string{words[rng.Intn(len(words))], words[rng.Intn(len(words))]},
		}
	}
	db.AddFeatureSet("food", feats)
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	return db, words
}

// At the top of the recall range the LSH filter keeps verification on and
// the candidate test is "any of 128 minima agree" — for the paper's tiny
// keyword sets a true match slips through with probability < 1e-12, so
// the worked example must come back exactly.
func TestApproxHighRecallMatchesPaperExample(t *testing.T) {
	db := paperDB(t, Config{IndexKind: IR2, SignatureBits: 8})
	q := paperQuery(3, STPS)
	exact, _, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	q.Mode = ModeApprox
	q.Recall = 0.99
	approx, stats, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(approx) != len(exact) {
		t.Fatalf("approx %d results, exact %d", len(approx), len(exact))
	}
	for i := range approx {
		if approx[i].ID != exact[i].ID || math.Abs(approx[i].Score-exact[i].Score) > 1e-9 {
			t.Errorf("rank %d: approx (%d, %v), exact (%d, %v)",
				i, approx[i].ID, approx[i].Score, exact[i].ID, exact[i].Score)
		}
	}
	if stats.ApproxCandidates == 0 {
		t.Error("approx mode recorded no candidate tests")
	}
}

// Skip-verify mode (the default 0.9 target) answers from MinHash estimates
// without touching the record file; it must recover most of the exact
// top-k and report both pruning and skipped verification reads.
func TestApproxSkipVerifyRecallAndCounters(t *testing.T) {
	db, words := approxRandomDB(t)
	rng := rand.New(rand.NewSource(99))
	var recallSum float64
	var queries int
	var totalCands, totalSkipped int64
	for trial := 0; trial < 20; trial++ {
		q := Query{
			K: 5, Radius: 0.1, Lambda: 0.5,
			Keywords: map[string][]string{"food": {
				words[rng.Intn(len(words))], words[rng.Intn(len(words))], words[rng.Intn(len(words))],
			}},
		}
		exact, _, err := db.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(exact) == 0 {
			continue
		}
		q.Mode = ModeApprox
		q.Recall = 0.9
		approx, stats, err := db.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[int64]bool, len(exact))
		for _, r := range exact {
			want[r.ID] = true
		}
		hit := 0
		for _, r := range approx {
			if want[r.ID] {
				hit++
			}
		}
		recallSum += float64(hit) / float64(len(exact))
		queries++
		totalCands += stats.ApproxCandidates
		totalSkipped += stats.ApproxSkippedReads
	}
	if queries == 0 {
		t.Fatal("no non-empty exact answers in the workload")
	}
	if mean := recallSum / float64(queries); mean < 0.8 {
		t.Errorf("mean recall@k %.3f below 0.8 at a 0.9 target", mean)
	}
	if totalCands == 0 {
		t.Error("no candidate tests recorded")
	}
	if totalSkipped == 0 {
		t.Error("skip-verify mode skipped no verification reads")
	}
}

// Exact mode must stay byte-identical whether or not the Mode field is
// spelled out, and must never populate the approx counters.
func TestExactModeUnchanged(t *testing.T) {
	db := paperDB(t, Config{})
	q := paperQuery(3, STPS)
	implicit, stats, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.ApproxCandidates != 0 || stats.ApproxPruned != 0 || stats.ApproxSkippedReads != 0 {
		t.Errorf("exact mode populated approx counters: %+v", stats)
	}
	q.Mode = ModeExact
	explicit, _, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(implicit) != len(explicit) {
		t.Fatalf("explicit exact changed the result count")
	}
	for i := range implicit {
		if implicit[i] != explicit[i] {
			t.Errorf("rank %d: %+v vs %+v", i, implicit[i], explicit[i])
		}
	}
}

func TestApproxRejectedInvalid(t *testing.T) {
	db := paperDB(t, Config{IndexKind: IR2, SignatureBits: 8})
	q := paperQuery(3, STPS)
	q.Mode = "fuzzy"
	if _, _, err := db.TopK(q); err == nil {
		t.Error("unknown mode must be rejected")
	}
	q.Mode = ModeApprox
	q.Recall = 1.5
	if _, _, err := db.TopK(q); err == nil {
		t.Error("recall above 1 must be rejected")
	}
}

// Approx mode pays only where it skips verification reads, so only a
// signature index takes it: on exact bitmaps TopK and Explain reject it as
// an invalid query that names the setting to change.
func TestApproxNeedsSignatureIndex(t *testing.T) {
	q := paperQuery(3, STPS)
	q.Mode = ModeApprox
	for _, kind := range []IndexKind{SRT, IR2} {
		db := paperDB(t, Config{IndexKind: kind})
		_, _, err := db.TopK(q)
		if !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("index %v: TopK err %v, want ErrInvalidQuery", kind, err)
		}
		if !strings.Contains(err.Error(), "SignatureBits") {
			t.Errorf("index %v: error %q does not name SignatureBits", kind, err)
		}
		if _, err := db.Explain(q); !errors.Is(err, ErrInvalidQuery) {
			t.Fatalf("index %v: Explain err %v, want ErrInvalidQuery", kind, err)
		}
	}
	db := paperDB(t, Config{IndexKind: IR2, SignatureBits: 8})
	if res, _, err := db.TopK(q); err != nil || len(res) == 0 {
		t.Fatalf("signature index: %d results, err %v", len(res), err)
	}
}

func TestExplainShowsApproxParams(t *testing.T) {
	db := paperDB(t, Config{IndexKind: IR2, SignatureBits: 8})
	q := paperQuery(3, STPS)
	ex, err := db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Mode != "" || strings.Contains(ex.String(), "mode: approx") {
		t.Errorf("exact explain mentions approx: %q", ex.String())
	}
	q.Mode = ModeApprox
	q.Recall = 0.9
	ex, err = db.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Mode != ModeApprox || ex.Recall != 0.9 {
		t.Errorf("explain mode %q recall %v", ex.Mode, ex.Recall)
	}
	if ex.ApproxBands < 1 || ex.ApproxRows < 1 {
		t.Errorf("explain LSH params %d x %d", ex.ApproxBands, ex.ApproxRows)
	}
	if ex.ApproxVerify {
		t.Error("0.9 target should skip verification")
	}
	if !strings.Contains(ex.String(), "mode: approx") {
		t.Errorf("rendered explain missing approx line: %q", ex.String())
	}
}
