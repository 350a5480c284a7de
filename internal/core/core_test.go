package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/obs"
)

// testWorld bundles a randomly generated engine plus its raw data.
type testWorld struct {
	engine *Engine
	vocabW int
}

// buildWorld creates an engine over random clustered data.
func buildWorld(t testing.TB, seed int64, numObjects, numFeatures, c, vocabW int, kind index.Kind, opts Options) *testWorld {
	t.Helper()
	return buildWorldBehind(t, seed, numObjects, numFeatures, c, vocabW, kind, opts, 0)
}

// buildWorldBehind is buildWorld with the feature indexes behind pools of
// featurePages pages (0: the default, which holds every page).
func buildWorldBehind(t testing.TB, seed int64, numObjects, numFeatures, c, vocabW int, kind index.Kind, opts Options, featurePages int) *testWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	objs := make([]index.Object, numObjects)
	for i := range objs {
		objs[i] = index.Object{ID: int64(i), Location: randPoint(rng)}
	}
	oidx, err := index.BuildObjectIndex(objs, index.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	fidxs := make([]*index.FeatureIndex, c)
	for s := 0; s < c; s++ {
		feats := make([]index.Feature, numFeatures)
		for i := range feats {
			kw := kwset.NewSet(vocabW)
			for j := 0; j < 1+rng.Intn(3); j++ {
				kw.Add(rng.Intn(vocabW))
			}
			feats[i] = index.Feature{
				ID:       int64(i),
				Location: randPoint(rng),
				Score:    rng.Float64(),
				Keywords: kw,
			}
		}
		fidxs[s], err = index.BuildFeatureIndex(feats, index.Options{
			Kind: kind, VocabWidth: vocabW, PageSize: 1024, BufferPages: featurePages,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngine(oidx, fidxs, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{engine: eng, vocabW: vocabW}
}

func randPoint(rng *rand.Rand) geo.Point {
	// Mildly clustered to create interesting combination geometry.
	if rng.Intn(3) == 0 {
		return geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	cx, cy := float64(rng.Intn(4))*0.25+0.125, float64(rng.Intn(4))*0.25+0.125
	return geo.Point{
		X: math.Min(1, math.Max(0, cx+0.06*rng.NormFloat64())),
		Y: math.Min(1, math.Max(0, cy+0.06*rng.NormFloat64())),
	}
}

// randQuery draws query parameters roughly matching Table 2 ranges.
func (w *testWorld) randQuery(rng *rand.Rand, c int, variant Variant) Query {
	kws := make([]kwset.Set, c)
	for i := range kws {
		s := kwset.NewSet(w.vocabW)
		for j := 0; j < 1+rng.Intn(3); j++ {
			s.Add(rng.Intn(w.vocabW))
		}
		kws[i] = s
	}
	return Query{
		K:        1 + rng.Intn(12),
		Radius:   0.05 + rng.Float64()*0.15,
		Lambda:   rng.Float64(),
		Keywords: kws,
		Variant:  variant,
	}
}

// assertMatchesBruteForce verifies the algorithm answer against the
// oracle: same result count, same score vector (up to ties), and every
// reported score must equal the object's true score.
func assertMatchesBruteForce(t *testing.T, w *testWorld, q Query, got []Result, label string) {
	t.Helper()
	want, err := w.engine.BruteForce(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("%s: rank %d score %v, want %v (q=%+v)", label, i, got[i].Score, want[i].Score, q)
		}
	}
	// Reported score must be the object's true score.
	for _, r := range got {
		exact, err := w.engine.ExactScore(q, r.Location)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(r.Score-exact) > 1e-9 {
			t.Fatalf("%s: object %d reported score %v, exact %v", label, r.ID, r.Score, exact)
		}
	}
	// No duplicate ids.
	ids := make(map[int64]bool)
	for _, r := range got {
		if ids[r.ID] {
			t.Fatalf("%s: duplicate id %d", label, r.ID)
		}
		ids[r.ID] = true
	}
}

func TestSTDSRangeMatchesBruteForce(t *testing.T) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		w := buildWorld(t, 100, 400, 300, 2, 24, kind, Options{BatchSTDS: true})
		rng := rand.New(rand.NewSource(200))
		for trial := 0; trial < 8; trial++ {
			q := w.randQuery(rng, 2, RangeScore)
			got, _, err := w.engine.STDS(q)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesBruteForce(t, w, q, got, "STDS/"+kind.String())
		}
	}
}

func TestSTDSSingleMatchesBatch(t *testing.T) {
	wBatch := buildWorld(t, 101, 350, 250, 2, 16, index.SRT, Options{BatchSTDS: true})
	wSingle := buildWorld(t, 101, 350, 250, 2, 16, index.SRT, Options{BatchSTDS: false})
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 6; trial++ {
		q := wBatch.randQuery(rng, 2, RangeScore)
		a, _, err := wBatch.engine.STDS(q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := wSingle.engine.STDS(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("batch %d vs single %d results", len(a), len(b))
		}
		for i := range a {
			if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
				t.Fatalf("rank %d: batch %v single %v", i, a[i].Score, b[i].Score)
			}
		}
	}
}

func TestSTPSRangeMatchesBruteForce(t *testing.T) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		w := buildWorld(t, 102, 400, 300, 2, 24, kind, Options{})
		rng := rand.New(rand.NewSource(202))
		for trial := 0; trial < 10; trial++ {
			q := w.randQuery(rng, 2, RangeScore)
			got, _, err := w.engine.STPS(q)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesBruteForce(t, w, q, got, "STPS/"+kind.String())
		}
	}
}

func TestSTPSRangeThreeFeatureSets(t *testing.T) {
	w := buildWorld(t, 103, 300, 200, 3, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 6; trial++ {
		q := w.randQuery(rng, 3, RangeScore)
		got, _, err := w.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesBruteForce(t, w, q, got, "STPS/c=3")
	}
}

func TestSTPSInfluenceMatchesBruteForce(t *testing.T) {
	w := buildWorld(t, 104, 350, 250, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(204))
	for trial := 0; trial < 8; trial++ {
		q := w.randQuery(rng, 2, InfluenceScore)
		got, _, err := w.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesBruteForce(t, w, q, got, "STPS/influence")
	}
}

func TestSTDSInfluenceMatchesBruteForce(t *testing.T) {
	w := buildWorld(t, 105, 300, 200, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(205))
	for trial := 0; trial < 5; trial++ {
		q := w.randQuery(rng, 2, InfluenceScore)
		got, _, err := w.engine.STDS(q)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesBruteForce(t, w, q, got, "STDS/influence")
	}
}

func TestSTPSNearestNeighborMatchesBruteForce(t *testing.T) {
	w := buildWorld(t, 106, 300, 150, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(206))
	for trial := 0; trial < 8; trial++ {
		q := w.randQuery(rng, 2, NearestNeighborScore)
		got, _, err := w.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesBruteForce(t, w, q, got, "STPS/nn")
	}
}

func TestSTDSNearestNeighborMatchesBruteForce(t *testing.T) {
	w := buildWorld(t, 107, 250, 150, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(207))
	for trial := 0; trial < 5; trial++ {
		q := w.randQuery(rng, 2, NearestNeighborScore)
		got, _, err := w.engine.STDS(q)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesBruteForce(t, w, q, got, "STDS/nn")
	}
}

// STPS under each pairwise rule answers as the oracle does: range over
// three sets, and NN over two and three, where generation applies the
// cells rule.
func TestCombinationRulesMatchBruteForce(t *testing.T) {
	for _, tc := range []struct {
		variant Variant
		c       int
	}{{RangeScore, 3}, {NearestNeighborScore, 2}, {NearestNeighborScore, 3}} {
		w := buildWorld(t, 108, 300, 200, tc.c, 16, index.SRT, Options{})
		rng := rand.New(rand.NewSource(208))
		for trial := 0; trial < 6; trial++ {
			q := w.randQuery(rng, tc.c, tc.variant)
			got, _, err := w.engine.STPS(q)
			if err != nil {
				t.Fatal(err)
			}
			assertMatchesBruteForce(t, w, q, got, fmt.Sprintf("STPS/%v c=%d", tc.variant, tc.c))
		}
	}
}

func TestKLargerThanDataset(t *testing.T) {
	w := buildWorld(t, 110, 40, 100, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(210))
	q := w.randQuery(rng, 2, RangeScore)
	q.K = 100
	got, _, err := w.engine.STPS(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("got %d results, want all 40 objects", len(got))
	}
	assertMatchesBruteForce(t, w, q, got, "STPS/k>n")
	got, _, err = w.engine.STDS(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("STDS got %d results", len(got))
	}
}

// A query whose keywords match nothing must return objects with score 0
// (the virtual-feature path) rather than failing.
func TestNoRelevantFeatures(t *testing.T) {
	w := buildWorld(t, 111, 100, 100, 2, 16, index.SRT, Options{})
	q := Query{
		K:      5,
		Radius: 0.1,
		Lambda: 0.5,
		Keywords: []kwset.Set{
			kwset.NewSet(16), // empty keyword sets: nothing is relevant
			kwset.NewSet(16),
		},
		Variant: RangeScore,
	}
	got, _, err := w.engine.STPS(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d results", len(got))
	}
	for _, r := range got {
		if r.Score != 0 {
			t.Fatalf("score %v, want 0", r.Score)
		}
	}
}

func TestLambdaExtremes(t *testing.T) {
	w := buildWorld(t, 112, 300, 200, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(212))
	for _, lambda := range []float64{0, 1} {
		q := w.randQuery(rng, 2, RangeScore)
		q.Lambda = lambda
		got, _, err := w.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesBruteForce(t, w, q, got, "STPS/lambda")
		got, _, err = w.engine.STDS(q)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesBruteForce(t, w, q, got, "STDS/lambda")
	}
}

func TestQueryValidation(t *testing.T) {
	w := buildWorld(t, 113, 50, 50, 2, 16, index.SRT, Options{})
	bad := []Query{
		{K: 0, Radius: 0.1, Keywords: make([]kwset.Set, 2)},
		{K: 5, Radius: 0.1, Keywords: make([]kwset.Set, 1)},
		{K: 5, Radius: 0, Keywords: make([]kwset.Set, 2)},
		{K: 5, Radius: 0.1, Lambda: 1.5, Keywords: make([]kwset.Set, 2)},
	}
	for i, q := range bad {
		if _, _, err := w.engine.STPS(q); err == nil {
			t.Errorf("query %d should fail validation", i)
		}
		if _, _, err := w.engine.STDS(q); err == nil {
			t.Errorf("query %d should fail STDS validation", i)
		}
	}
	// NN variant does not need a radius.
	q := Query{K: 3, Lambda: 0.5, Keywords: []kwset.Set{kwset.SetFromWords(16, 1), kwset.SetFromWords(16, 2)}, Variant: NearestNeighborScore}
	if _, _, err := w.engine.STPS(q); err != nil {
		t.Errorf("NN query with no radius: %v", err)
	}
}

func TestNewEngineValidation(t *testing.T) {
	w := buildWorld(t, 114, 10, 10, 1, 8, index.SRT, Options{})
	objects := w.engine.ObjectParts()
	if _, err := NewEngineOverParts(nil, 0, w.engine.FeatureGroups(), Options{}); err == nil {
		t.Error("no object index must fail")
	}
	if _, err := NewEngineOverParts([]*index.ObjectIndex{nil}, 0, w.engine.FeatureGroups(), Options{}); err == nil {
		t.Error("nil object index must fail")
	}
	if _, err := NewEngineOverParts(objects, 2, w.engine.FeatureGroups(), Options{}); err == nil {
		t.Error("more shard parts than object parts must fail")
	}
	if _, err := NewEngine(objects[0], nil, Options{}); err == nil {
		t.Error("no feature indexes must fail")
	}
	if _, err := NewEngine(objects[0], []*index.FeatureIndex{nil}, Options{}); err == nil {
		t.Error("nil feature index must fail")
	}
	if _, err := NewEngineOverParts(objects, 0, []*index.FeatureGroup{nil}, Options{}); err == nil {
		t.Error("nil feature group must fail")
	}
}

func TestStatsPopulated(t *testing.T) {
	w := buildWorld(t, 115, 400, 300, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(215))
	q := w.randQuery(rng, 2, RangeScore)
	_, st, err := w.engine.STPS(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.LogicalReads == 0 {
		t.Error("STPS should read pages")
	}
	if st.Combinations == 0 {
		t.Error("STPS should emit combinations")
	}
	if st.FeaturesPulled == 0 {
		t.Error("STPS should pull features")
	}
	if st.CPUTime <= 0 {
		t.Error("CPU time must be positive")
	}
	_, st, err = w.engine.STDS(q)
	if err != nil {
		t.Fatal(err)
	}
	if st.ObjectsScored == 0 {
		t.Error("STDS should score objects")
	}
	qnn := w.randQuery(rng, 2, NearestNeighborScore)
	_, st, err = w.engine.STPS(qnn)
	if err != nil {
		t.Fatal(err)
	}
	if st.VoronoiCPUTime <= 0 {
		t.Error("NN variant should attribute Voronoi CPU time")
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{CPUTime: 10, IOTime: 20, LogicalReads: 4, PhysicalReads: 2, Combinations: 3, FeaturesPulled: 5, ObjectsScored: 7}
	var acc Stats
	acc.Add(a)
	acc.Add(a)
	if acc.LogicalReads != 8 || acc.Combinations != 6 {
		t.Errorf("Add: %+v", acc)
	}
	avg := acc.Scale(2)
	if avg.LogicalReads != 4 || avg.Combinations != 3 || avg.CPUTime != 10 {
		t.Errorf("Scale: %+v", avg)
	}
	if a.Total() != 30 {
		t.Errorf("Total = %v", a.Total())
	}
	if s := (Stats{}).Scale(0); s != (Stats{}) {
		t.Error("Scale(0) must be identity")
	}
}

func TestVariantStrings(t *testing.T) {
	if RangeScore.String() != "range" || InfluenceScore.String() != "influence" ||
		NearestNeighborScore.String() != "nearest-neighbor" {
		t.Error("variant strings")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant string")
	}
}

// storedCells returns how many cells the engine's store holds.
func storedCells(e *Engine) int {
	e.cells.mu.RLock()
	defer e.cells.mu.RUnlock()
	return len(e.cells.m)
}

// Every NN query of an engine shares its cell store: the first query of a
// shape builds the cells of the features it pulls, and the same query
// again builds none — no Voronoi reads, no Voronoi time, not one more cell
// — with the same answer, which matches brute force either way.
func TestVoronoiCellCache(t *testing.T) {
	w := buildWorld(t, 400, 250, 150, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 3; trial++ {
		q := w.randQuery(rng, 2, NearestNeighborScore)
		before := storedCells(w.engine)
		first, st1, err := w.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesBruteForce(t, w, q, first, "STPS/nn-first")
		if trial == 0 && (storedCells(w.engine) == before || st1.VoronoiCPUTime == 0) {
			t.Fatalf("the first NN query of a fresh engine built no cell (%d stored)", storedCells(w.engine))
		}
		stored := storedCells(w.engine)
		again, st2, err := w.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		if st2.VoronoiReads != 0 || st2.VoronoiCPUTime != 0 || storedCells(w.engine) != stored {
			t.Errorf("trial %d: the repeated query read %d pages and spent %v building cells, store %d → %d",
				trial, st2.VoronoiReads, st2.VoronoiCPUTime, stored, storedCells(w.engine))
		}
		if !slices.Equal(again, first) {
			t.Fatalf("trial %d: repeated answer %v, first %v", trial, again, first)
		}
		assertMatchesBruteForce(t, w, q, again, "STPS/nn-stored")
	}
}

// The store is warmed by queries, not by a precompute pass, and holds what
// every query built: once a batch of NN queries has run, each of them runs
// again — in reverse order, after the others' cells were added — with no
// Voronoi page reads and no new cell, and matches brute force.
func TestPrecomputeVoronoiCells(t *testing.T) {
	w := buildWorld(t, 402, 200, 80, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(403))
	qs := make([]Query, 3)
	for i := range qs {
		qs[i] = w.randQuery(rng, 2, NearestNeighborScore)
		if _, _, err := w.engine.STPS(qs[i]); err != nil {
			t.Fatal(err)
		}
	}
	warm := storedCells(w.engine)
	if warm == 0 {
		t.Fatal("the warming queries stored no cell")
	}
	for i := len(qs) - 1; i >= 0; i-- {
		got, st, err := w.engine.STPS(qs[i])
		if err != nil {
			t.Fatal(err)
		}
		if st.VoronoiReads != 0 || storedCells(w.engine) != warm {
			t.Errorf("query %d: %d Voronoi reads on a warm store, store %d → %d",
				i, st.VoronoiReads, warm, storedCells(w.engine))
		}
		assertMatchesBruteForce(t, w, qs[i], got, "STPS/nn-warm")
	}
}

// A cell is built when its feature is pulled, inside the combination
// stream, and is still the Voronoi cost Figures 13–14 stripe: on a fresh
// engine over 32-page pools an NN query's VoronoiReads are the physical
// reads of its cell walks — those of its voronoi.build spans, one entry
// per cell built — and the spans sit under combos.generate.
func TestVoronoiCostAttributedAtPull(t *testing.T) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		w := buildWorldBehind(t, 404, 600, 1200, 2, 16, kind, Options{}, 32)
		q := w.randQuery(rand.New(rand.NewSource(405)), 2, NearestNeighborScore)
		q.Trace = true
		_, st, err := w.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		var reads int64
		builds := 0
		st.Trace.Walk(func(path string, _ int, sp *obs.Span) {
			if sp.Name != "voronoi.build" {
				return
			}
			if path != "combos.generate/voronoi.build" {
				t.Errorf("%v: cell built under %s", kind, path)
			}
			reads += sp.PhysicalReads
			builds += sp.Count
		})
		if st.VoronoiReads == 0 || st.VoronoiReads != reads {
			t.Fatalf("%v: VoronoiReads %d, physical reads of the cell walks %d", kind, st.VoronoiReads, reads)
		}
		if builds != storedCells(w.engine) || st.VoronoiCPUTime <= 0 {
			t.Fatalf("%v: %d cell walks for %d stored cells, Voronoi time %v", kind, builds, storedCells(w.engine), st.VoronoiCPUTime)
		}
	}
}

// Every similarity measure must round-trip through both algorithms and
// match the brute-force oracle.
func TestSimilarityMeasuresMatchBruteForce(t *testing.T) {
	w := buildWorld(t, 700, 300, 200, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(701))
	for _, sim := range []index.Similarity{index.Jaccard, index.Dice, index.Cosine, index.Overlap} {
		q := w.randQuery(rng, 2, RangeScore)
		q.Similarity = sim
		got, _, err := w.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesBruteForce(t, w, q, got, "STPS/"+sim.String())
		got, _, err = w.engine.STDS(q)
		if err != nil {
			t.Fatal(err)
		}
		assertMatchesBruteForce(t, w, q, got, "STDS/"+sim.String())
	}
}

// Different measures generally rank differently — sanity-check the knob
// actually changes scoring.
func TestSimilarityMeasuresDiffer(t *testing.T) {
	w := buildWorld(t, 702, 200, 300, 1, 12, index.SRT, Options{})
	rng := rand.New(rand.NewSource(703))
	q := w.randQuery(rng, 1, RangeScore)
	q.Lambda = 0.9 // make the textual term dominant
	q.K = 20
	scores := map[string]float64{}
	for _, sim := range []index.Similarity{index.Jaccard, index.Overlap} {
		q.Similarity = sim
		res, _, err := w.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) > 0 {
			scores[sim.String()] = res[0].Score
		}
	}
	if len(scores) == 2 && scores["jaccard"] == scores["overlap"] {
		t.Log("jaccard and overlap agreed on this workload (possible but unusual)")
	}
}

// Six goroutines run NN STPS on one engine that has served no NN query, so
// they build, look up and race to store the same cells; every answer must
// match brute force (run under -race by `make race`).
func TestConcurrentNNShareCellStore(t *testing.T) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		w := buildWorld(t, 406, 300, 200, 2, 16, kind, Options{})
		rng := rand.New(rand.NewSource(407))
		qs := make([]Query, 8)
		want := make([][]Result, len(qs))
		for i := range qs {
			qs[i] = w.randQuery(rng, 2, NearestNeighborScore)
			var err error
			if want[i], err = w.engine.BruteForce(qs[i]); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := range qs {
					i := (g + r) % len(qs)
					got, _, err := w.engine.STPS(qs[i])
					if err != nil {
						t.Errorf("%v goroutine %d query %d: %v", kind, g, i, err)
						return
					}
					if len(got) != len(want[i]) {
						t.Errorf("%v goroutine %d query %d: %d results, brute force %d", kind, g, i, len(got), len(want[i]))
						return
					}
					for j := range got {
						if math.Abs(got[j].Score-want[i][j].Score) > 1e-9 {
							t.Errorf("%v goroutine %d query %d rank %d: %v, brute force %v", kind, g, i, j, got[j].Score, want[i][j].Score)
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
