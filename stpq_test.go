package stpq

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// paperDB builds the paper's running example (Figures 2, 3, 4 and 6):
// restaurants r1–r8 and coffeehouses c1–c8 with the published coordinates,
// ratings and descriptions (coordinates normalized from the 0–10 grid),
// plus ten hotels of which exactly p6, p9 and p10 lie within r = 3.5 grid
// units of both Ontario's Pizza r6 (7,6) and Royal Coffee Shop c5 (5,5).
func paperDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	db := New(cfg)
	db.AddObjects([]Object{
		{ID: 1, X: 0.05, Y: 0.95}, // far northwest
		{ID: 2, X: 0.10, Y: 0.10},
		{ID: 3, X: 0.95, Y: 0.95},
		{ID: 4, X: 0.10, Y: 0.50},
		{ID: 5, X: 0.95, Y: 0.10},
		{ID: 6, X: 0.60, Y: 0.55}, // near both r6 and c5
		{ID: 7, X: 0.02, Y: 0.70},
		{ID: 8, X: 0.98, Y: 0.60},
		{ID: 9, X: 0.55, Y: 0.60},  // near both
		{ID: 10, X: 0.65, Y: 0.50}, // near both
	})
	db.AddFeatureSet("restaurants", []Feature{
		{ID: 1, X: 0.1, Y: 0.2, Score: 0.6, Keywords: []string{"chinese", "asian"}},
		{ID: 2, X: 0.4, Y: 0.1, Score: 0.5, Keywords: []string{"greek", "mediterranean"}},
		{ID: 3, X: 0.5, Y: 0.8, Score: 0.8, Keywords: []string{"italian", "spanish", "european"}},
		{ID: 4, X: 0.2, Y: 0.3, Score: 0.8, Keywords: []string{"chinese", "buffet"}},
		{ID: 5, X: 0.8, Y: 0.4, Score: 0.9, Keywords: []string{"pizza", "sandwiches", "subs"}},
		{ID: 6, X: 0.7, Y: 0.6, Score: 0.8, Keywords: []string{"pizza", "italian"}},
		{ID: 7, X: 0.6, Y: 1.0, Score: 0.8, Keywords: []string{"seafood", "mediterranean"}},
		{ID: 8, X: 0.3, Y: 0.7, Score: 1.0, Keywords: []string{"american", "coffee", "tea", "bistro"}},
	})
	db.AddFeatureSet("coffeehouses", []Feature{
		{ID: 1, X: 0.4, Y: 0.1, Score: 0.6, Keywords: []string{"cake", "bread", "pastries"}},
		{ID: 2, X: 0.4, Y: 0.7, Score: 0.5, Keywords: []string{"cappuccino", "toast", "decaf"}},
		{ID: 3, X: 0.3, Y: 1.0, Score: 0.8, Keywords: []string{"cake", "toast", "donuts"}},
		{ID: 4, X: 0.6, Y: 0.2, Score: 0.6, Keywords: []string{"cappuccino", "iced-coffee", "tea"}},
		{ID: 5, X: 0.5, Y: 0.5, Score: 0.9, Keywords: []string{"muffins", "croissants", "espresso"}},
		{ID: 6, X: 1.0, Y: 0.3, Score: 1.0, Keywords: []string{"macchiato", "espresso", "decaf"}},
		{ID: 7, X: 0.6, Y: 0.9, Score: 0.7, Keywords: []string{"muffins", "pastries", "espresso"}},
		{ID: 8, X: 0.7, Y: 0.6, Score: 0.4, Keywords: []string{"croissants", "decaf", "tea"}},
	})
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	return db
}

// paperQuery is the query of the paper's Section 6.4 example: r = 3.5 grid
// units, W1 = {italian, pizza}, W2 = {espresso, muffins}, λ = 0.5.
func paperQuery(k int, alg Algorithm) Query {
	return Query{
		K:      k,
		Radius: 0.35,
		Lambda: 0.5,
		Keywords: map[string][]string{
			"restaurants":  {"italian", "pizza"},
			"coffeehouses": {"espresso", "muffins"},
		},
		Algorithm: alg,
	}
}

// The paper's worked example: hotels p6, p9 and p10 score
// s(r6) + s(c5) = 0.9 + 0.78333… = 1.68333… and are the unique top-3.
func TestPaperExampleTop3(t *testing.T) {
	want := 0.9 + (0.5*0.9 + 0.5*(2.0/3.0))
	for _, alg := range []Algorithm{STPS, STDS} {
		db := paperDB(t, Config{})
		res, _, err := db.TopK(paperQuery(3, alg))
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 3 {
			t.Fatalf("alg %d: got %d results", alg, len(res))
		}
		ids := map[int64]bool{}
		for _, r := range res {
			ids[r.ID] = true
			if math.Abs(r.Score-want) > 1e-9 {
				t.Errorf("alg %d: hotel %d score %v, want %v", alg, r.ID, r.Score, want)
			}
		}
		for _, id := range []int64{6, 9, 10} {
			if !ids[id] {
				t.Errorf("alg %d: hotel %d missing from top-3 (got %v)", alg, id, res)
			}
		}
	}
}

// Definition 1 example: s(r6) = 0.9 for W = {italian, pizza}, λ = 0.5;
// Beijing Restaurant scores 0.3.
func TestPaperExampleFeatureScores(t *testing.T) {
	db := paperDB(t, Config{})
	q := paperQuery(1, STPS)
	// Score of a point exactly at r6, restaurants only contribution would
	// be s(r6) = 0.9; at that location c5 is within range too.
	got, err := db.Score(q, 0.7, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	wantC5 := 0.5*0.9 + 0.5*(2.0/3.0)
	if math.Abs(got-(0.9+wantC5)) > 1e-9 {
		t.Errorf("score at r6 = %v, want %v", got, 0.9+wantC5)
	}
}

func TestBothIndexKindsAgree(t *testing.T) {
	srt := paperDB(t, Config{IndexKind: SRT})
	ir2 := paperDB(t, Config{IndexKind: IR2})
	q := paperQuery(5, STPS)
	a, _, err := srt.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := ir2.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("SRT %d vs IR2 %d results", len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			t.Errorf("rank %d: SRT %v, IR2 %v", i, a[i].Score, b[i].Score)
		}
	}
}

func TestVariantsRun(t *testing.T) {
	db := paperDB(t, Config{})
	for _, v := range []Variant{Range, Influence, NearestNeighbor} {
		q := paperQuery(4, STPS)
		q.Variant = v
		res, stats, err := db.TopK(q)
		if err != nil {
			t.Fatalf("variant %d: %v", v, err)
		}
		if len(res) == 0 {
			t.Fatalf("variant %d: no results", v)
		}
		if stats.Total() <= 0 {
			t.Fatalf("variant %d: no cost recorded", v)
		}
		// Scores must be non-increasing.
		for i := 1; i < len(res); i++ {
			if res[i].Score > res[i-1].Score+1e-12 {
				t.Fatalf("variant %d: results unsorted", v)
			}
		}
	}
}

func TestUnknownFeatureSetRejected(t *testing.T) {
	db := paperDB(t, Config{})
	q := paperQuery(3, STPS)
	q.Keywords["bars"] = []string{"beer"}
	if _, _, err := db.TopK(q); err == nil {
		t.Fatal("unknown feature set must be rejected")
	}
}

func TestMissingKeywordSetMatchesNothing(t *testing.T) {
	db := paperDB(t, Config{})
	q := paperQuery(3, STPS)
	delete(q.Keywords, "coffeehouses")
	res, _, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	// Best possible is now s(r6) = 0.9 alone.
	if math.Abs(res[0].Score-0.9) > 1e-9 {
		t.Errorf("top score %v, want 0.9 with only restaurants", res[0].Score)
	}
}

func TestUnknownQueryKeywordsMatchNothing(t *testing.T) {
	db := paperDB(t, Config{})
	q := paperQuery(2, STPS)
	q.Keywords = map[string][]string{
		"restaurants":  {"sushi-omakase"},
		"coffeehouses": {"bubble-tea"},
	}
	res, _, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Score != 0 {
			t.Errorf("score %v for unmatched keywords, want 0", r.Score)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if err := New(Config{}).Build(); err == nil {
		t.Error("Build with no objects must fail")
	}
	db := New(Config{})
	db.AddObjects([]Object{{ID: 1, X: 0.5, Y: 0.5}})
	if err := db.Build(); err == nil {
		t.Error("Build with no feature sets must fail")
	}
	db2 := New(Config{})
	db2.AddObjects([]Object{{ID: 1, X: 0.5, Y: 0.5}})
	db2.AddFeatureSet("r", []Feature{{ID: 1, X: 0.5, Y: 0.5, Score: 2.0, Keywords: []string{"a"}}})
	if err := db2.Build(); err == nil {
		t.Error("out-of-range score must fail")
	}
	db3 := paperDB(t, Config{})
	if err := db3.Build(); err == nil {
		t.Error("double Build must fail")
	}
}

func TestTopKBeforeBuild(t *testing.T) {
	db := New(Config{})
	if _, _, err := db.TopK(Query{K: 1}); err == nil {
		t.Error("TopK before Build must fail")
	}
}

func TestFeatureSetNames(t *testing.T) {
	db := paperDB(t, Config{})
	names := db.FeatureSetNames()
	if len(names) != 2 || names[0] != "restaurants" || names[1] != "coffeehouses" {
		t.Errorf("names = %v", names)
	}
}

func TestSTDSAgreesWithSTPSOnRandomData(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := New(Config{PageSize: 1024})
	objs := make([]Object, 300)
	for i := range objs {
		objs[i] = Object{ID: int64(i), X: rng.Float64(), Y: rng.Float64()}
	}
	db.AddObjects(objs)
	words := []string{"pizza", "sushi", "tacos", "ramen", "bagels", "pho", "curry", "bbq"}
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
	for trial := 0; trial < 5; trial++ {
		q := Query{
			K: 5, Radius: 0.05 + rng.Float64()*0.1, Lambda: rng.Float64(),
			Keywords: map[string][]string{"food": {words[rng.Intn(len(words))], words[rng.Intn(len(words))]}},
		}
		q.Algorithm = STPS
		a, _, err := db.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		q.Algorithm = STDS
		b, _, err := db.TopK(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("STPS %d vs STDS %d", len(a), len(b))
		}
		for i := range a {
			if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
				t.Fatalf("trial %d rank %d: STPS %v, STDS %v", trial, i, a[i].Score, b[i].Score)
			}
		}
	}
}

func TestStatsExposed(t *testing.T) {
	db := paperDB(t, Config{BufferPages: 2})
	_, stats, err := db.TopK(paperQuery(3, STPS))
	if err != nil {
		t.Fatal(err)
	}
	if stats.LogicalReads == 0 || stats.Combinations == 0 {
		t.Errorf("stats not populated: %+v", stats)
	}
}

func TestKeywordStats(t *testing.T) {
	db := paperDB(t, Config{})
	stats, err := db.KeywordStats("restaurants")
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) == 0 {
		t.Fatal("no keyword stats")
	}
	// Frequencies must be non-increasing.
	for i := 1; i < len(stats); i++ {
		if stats[i].Count > stats[i-1].Count {
			t.Fatal("stats not sorted by count")
		}
	}
	byWord := map[string]KeywordStat{}
	for _, s := range stats {
		byWord[s.Keyword] = s
	}
	// "pizza" appears in r5 and r6; best score among them is 0.9.
	if got := byWord["pizza"]; got.Count != 2 || got.TopScore != 0.9 {
		t.Errorf("pizza stat = %+v", got)
	}
	if got := byWord["chinese"]; got.Count != 2 || got.TopScore != 0.8 {
		t.Errorf("chinese stat = %+v", got)
	}
	// Equal frequencies order by keyword, and a keyword no restaurant
	// carries (it is in the vocabulary through the coffeehouses) is absent.
	for i := 1; i < len(stats); i++ {
		if stats[i].Count == stats[i-1].Count && stats[i].Keyword <= stats[i-1].Keyword {
			t.Errorf("tie not broken by keyword: %+v before %+v", stats[i-1], stats[i])
		}
	}
	if got, ok := byWord["espresso"]; ok {
		t.Errorf("unused keyword listed: %+v", got)
	}
	if _, err := db.KeywordStats("bars"); err == nil {
		t.Error("unknown feature set must fail")
	}
	if _, err := New(Config{}).KeywordStats("x"); err == nil {
		t.Error("KeywordStats before Build must fail")
	}
}

func TestSelectivity(t *testing.T) {
	db := paperDB(t, Config{})
	// "pizza" or "italian" matches r3, r5, r6 of the 8 restaurants.
	got, err := db.Selectivity("restaurants", []string{"pizza", "italian"})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-3.0/8.0) > 1e-12 {
		t.Errorf("Selectivity = %v, want 3/8", got)
	}
	zero, err := db.Selectivity("restaurants", []string{"sushi-omakase"})
	if err != nil || zero != 0 {
		t.Errorf("unknown keyword selectivity = %v, %v", zero, err)
	}
	if none, err := db.Selectivity("restaurants", nil); err != nil || none != 0 {
		t.Errorf("empty keyword list selectivity = %v, %v", none, err)
	}
	if _, err := db.Selectivity("bars", []string{"pizza"}); err == nil {
		t.Error("unknown feature set must fail")
	}
}

// TopK must be safe for concurrent callers after Build (queries run in
// parallel against session views with private read accounting).
func TestConcurrentTopK(t *testing.T) {
	db := paperDB(t, Config{})
	q := paperQuery(3, STPS)
	want, _, err := db.TopK(q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _, err := db.TopK(q)
			if err != nil {
				errs <- err
				return
			}
			if len(res) != len(want) {
				errs <- fmt.Errorf("got %d results, want %d", len(res), len(want))
				return
			}
			for i := range res {
				if math.Abs(res[i].Score-want[i].Score) > 1e-12 {
					errs <- fmt.Errorf("rank %d: %v vs %v", i, res[i].Score, want[i].Score)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
