package core

import (
	"math"
	"math/rand"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
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

// Lazy and eager combination generation must produce identical top-k
// answers.
func TestLazyEagerCombinationsAgree(t *testing.T) {
	wLazy := buildWorld(t, 108, 300, 200, 3, 16, index.SRT, Options{Combinations: CombinationsLazy})
	wEager := buildWorld(t, 108, 300, 200, 3, 16, index.SRT, Options{Combinations: CombinationsEager})
	rng := rand.New(rand.NewSource(208))
	for trial := 0; trial < 6; trial++ {
		q := wLazy.randQuery(rng, 3, RangeScore)
		a, _, err := wLazy.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := wEager.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("lazy %d vs eager %d", len(a), len(b))
		}
		for i := range a {
			if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
				t.Fatalf("rank %d: lazy %v eager %v", i, a[i].Score, b[i].Score)
			}
		}
	}
}

// Round-robin pulling must return the same answers as prioritized pulling.
func TestPullStrategiesAgree(t *testing.T) {
	wPrio := buildWorld(t, 109, 300, 200, 2, 16, index.SRT, Options{Pull: PullPrioritized})
	wRR := buildWorld(t, 109, 300, 200, 2, 16, index.SRT, Options{Pull: PullRoundRobin})
	rng := rand.New(rand.NewSource(209))
	for trial := 0; trial < 6; trial++ {
		q := wPrio.randQuery(rng, 2, RangeScore)
		a, _, err := wPrio.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := wRR.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
				t.Fatalf("rank %d: prio %v rr %v", i, a[i].Score, b[i].Score)
			}
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

func TestVariantAndStrategyStrings(t *testing.T) {
	if RangeScore.String() != "range" || InfluenceScore.String() != "influence" ||
		NearestNeighborScore.String() != "nearest-neighbor" {
		t.Error("variant strings")
	}
	if Variant(9).String() == "" {
		t.Error("unknown variant string")
	}
	if PullPrioritized.String() != "prioritized" || PullRoundRobin.String() != "round-robin" {
		t.Error("pull strategy strings")
	}
}

// The cross-query Voronoi cell cache must not change results, and must
// eliminate Voronoi work on repeated queries.
func TestVoronoiCellCache(t *testing.T) {
	plain := buildWorld(t, 400, 250, 150, 2, 16, index.SRT, Options{})
	cached := buildWorld(t, 400, 250, 150, 2, 16, index.SRT, Options{CacheVoronoiCells: true})
	rng := rand.New(rand.NewSource(401))
	q := plain.randQuery(rng, 2, NearestNeighborScore)
	a, _, err := plain.engine.STPS(q)
	if err != nil {
		t.Fatal(err)
	}
	b, st1, err := cached.engine.STPS(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i].Score-b[i].Score) > 1e-9 {
			t.Fatalf("rank %d: plain %v cached %v", i, a[i].Score, b[i].Score)
		}
	}
	// Second identical query: all cells cached, so Voronoi reads vanish.
	_, st2, err := cached.engine.STPS(q)
	if err != nil {
		t.Fatal(err)
	}
	if st2.VoronoiReads > 0 {
		t.Errorf("second query still performed %d Voronoi reads (first: %d)",
			st2.VoronoiReads, st1.VoronoiReads)
	}
}

// PrecomputeVoronoiCells warms the cache for every feature; queries then
// run without any Voronoi page reads at all.
func TestPrecomputeVoronoiCells(t *testing.T) {
	w := buildWorld(t, 402, 200, 80, 2, 16, index.SRT, Options{CacheVoronoiCells: true})
	if err := w.engine.PrecomputeVoronoiCells(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(403))
	for trial := 0; trial < 3; trial++ {
		q := w.randQuery(rng, 2, NearestNeighborScore)
		got, st, err := w.engine.STPS(q)
		if err != nil {
			t.Fatal(err)
		}
		if st.VoronoiReads != 0 {
			t.Errorf("trial %d: %d Voronoi reads after precompute", trial, st.VoronoiReads)
		}
		assertMatchesBruteForce(t, w, q, got, "STPS/nn-precomputed")
	}
}

func TestPrecomputeRequiresCaching(t *testing.T) {
	w := buildWorld(t, 404, 20, 20, 1, 8, index.SRT, Options{})
	if err := w.engine.PrecomputeVoronoiCells(); err == nil {
		t.Fatal("precompute without CacheVoronoiCells must fail")
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
