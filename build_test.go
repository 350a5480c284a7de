package stpq

// build_test.go pins DB.Build: what it refuses to index, that its trees do
// not depend on how many goroutines build them at once, and what it
// allocates per indexed item.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"stpq/internal/datagen"
)

// syntheticWorld is a datagen dataset in the public API's form: sets
// "set1"…, keywords "kw<id>", as stpqd -synthetic spells them.
func syntheticWorld(cfg datagen.SyntheticConfig) ([]Object, [][]Feature) {
	ds := datagen.Synthetic(cfg)
	objs := make([]Object, len(ds.Objects))
	for i, o := range ds.Objects {
		objs[i] = Object{ID: o.ID, X: o.Location.X, Y: o.Location.Y}
	}
	sets := make([][]Feature, len(ds.FeatureSets))
	for i, fs := range ds.FeatureSets {
		sets[i] = make([]Feature, len(fs))
		for j, f := range fs {
			var kws []string
			f.Keywords.ForEach(func(id int) { kws = append(kws, fmt.Sprintf("kw%d", id)) })
			sets[i][j] = Feature{ID: f.ID, X: f.Location.X, Y: f.Location.Y, Score: f.Score, Keywords: kws}
		}
	}
	return objs, sets
}

// fig7World is the default data point of Figure 7 at the root benchmarks'
// scale (BenchmarkFig7's fixtures).
func fig7World() ([]Object, [][]Feature) {
	key := synKey(0)
	return syntheticWorld(datagen.SyntheticConfig{
		Objects: key.objects, FeaturesPerSet: key.features, FeatureSets: key.sets,
		Vocab: key.vocab, Clusters: key.clusters, Seed: 1,
	})
}

// stageWorld returns a DB with the data added and not yet built.
func stageWorld(cfg Config, objs []Object, sets [][]Feature) *DB {
	db := New(cfg)
	db.AddObjects(objs)
	for i, feats := range sets {
		db.AddFeatureSet(fmt.Sprintf("set%d", i+1), feats)
	}
	return db
}

// TestBuildRejectsInvalidItems: a NaN or out-of-range feature score and a
// NaN or infinite coordinate of an object or a feature fail Build. Without
// the check they built: a NaN score hung the next range STPS query, an
// object at (NaN, 0.5) was returned with a positive range score, and an NN
// query over an object at +Inf returned fewer than k results.
func TestBuildRejectsInvalidItems(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	good := Feature{ID: 1, X: 0.5, Y: 0.5, Score: 0.5, Keywords: []string{"pizza"}}
	feature := func(f func(*Feature)) []Feature { g := good; f(&g); return []Feature{g} }
	cases := []struct {
		name  string
		objs  []Object
		feats []Feature
	}{
		{"score NaN", nil, feature(func(f *Feature) { f.Score = nan })},
		{"score above 1", nil, feature(func(f *Feature) { f.Score = 1.5 })},
		{"score below 0", nil, feature(func(f *Feature) { f.Score = -0.1 })},
		{"feature x NaN", nil, feature(func(f *Feature) { f.X = nan })},
		{"feature y -Inf", nil, feature(func(f *Feature) { f.Y = -inf })},
		{"object x NaN", []Object{{ID: 2, X: nan, Y: 0.5}}, []Feature{good}},
		{"object y +Inf", []Object{{ID: 2, X: 0.5, Y: inf}}, []Feature{good}},
	}
	for _, tc := range cases {
		db := New(Config{})
		db.AddObjects(append([]Object{{ID: 1, X: 0.5, Y: 0.5}}, tc.objs...))
		db.AddFeatureSet("food", tc.feats)
		if err := db.Build(); err == nil {
			t.Errorf("%s: Build accepted it", tc.name)
		}
	}
	db := New(Config{})
	db.AddObjects([]Object{{ID: 1, X: 0, Y: 1}})
	db.AddFeatureSet("food", []Feature{{ID: 1, X: 1, Y: 0, Score: 1, Keywords: []string{"pizza"}}, {ID: 2, Score: 0}})
	if err := db.Build(); err != nil {
		t.Errorf("Build of the unit square's corners and scores 0 and 1: %v", err)
	}
}

// TestApplyRejectsInvalidItems: the same items fail Apply with
// ErrInvalidMutation, and nothing of the batch is applied.
func TestApplyRejectsInvalidItems(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(-1)
	db := paperDB(t, Config{WALDir: t.TempDir()})
	for i, m := range []Mutation{
		{Op: OpUpsertFeature, Set: "restaurants", Feature: &Feature{ID: 90, X: 0.5, Y: 0.5, Score: nan}},
		{Op: OpUpsertFeature, Set: "restaurants", Feature: &Feature{ID: 90, X: nan, Y: 0.5, Score: 0.5}},
		{Op: OpUpsertFeature, Set: "restaurants", Feature: &Feature{ID: 90, X: 0.5, Y: inf, Score: 0.5}},
		{Op: OpUpsertObject, Object: &Object{ID: 90, X: nan, Y: 0.5}},
		{Op: OpUpsertObject, Object: &Object{ID: 90, X: 0.5, Y: inf}},
	} {
		ok := Mutation{Op: OpUpsertObject, Object: &Object{ID: 91, X: 0.5, Y: 0.5}}
		if err := db.Apply([]Mutation{ok, m}); !errors.Is(err, ErrInvalidMutation) {
			t.Errorf("case %d: err = %v, want ErrInvalidMutation", i, err)
		}
	}
	if n := db.PendingOps(); n != 0 {
		t.Errorf("%d mutations pending after rejected batches", n)
	}
}

// TestBuildRefusesWALWithoutWritePath: a WALDir on a DB that cannot take
// writes (a sharded one) fails Build with ErrIngestUnsupported before
// anything is built. The staged objects and sets stay in place, so every
// later Build fails the same way instead of with "no data objects added".
func TestBuildRefusesWALWithoutWritePath(t *testing.T) {
	objs, sets := syntheticWorld(datagen.SyntheticConfig{
		Objects: 200, FeaturesPerSet: 200, FeatureSets: 2, Vocab: 16, Clusters: 20, Seed: 3,
	})
	db := stageWorld(Config{ShardCount: 2, WALDir: t.TempDir()}, objs, sets)
	for attempt := 1; attempt <= 2; attempt++ {
		if err := db.Build(); !errors.Is(err, ErrIngestUnsupported) {
			t.Fatalf("Build #%d: %v, want ErrIngestUnsupported", attempt, err)
		}
	}
	if db.built || len(db.objects) != len(objs) || len(db.sets) != len(sets) {
		t.Fatalf("built %v, %d objects and %d sets staged after the refusal",
			db.built, len(db.objects), len(db.sets))
	}
	for i, feats := range sets {
		if name := fmt.Sprintf("set%d", i+1); len(db.sets[name]) != len(feats) {
			t.Errorf("%s holds %d features, want %d", name, len(db.sets[name]), len(feats))
		}
	}
}

// TestBuildSameFilesAnyGOMAXPROCS: Build bulk-loads its trees concurrently,
// and each tree owns its disk, so a DB built on one thread and one built on
// two Save byte-identical files.
func TestBuildSameFilesAnyGOMAXPROCS(t *testing.T) {
	objs, sets := syntheticWorld(datagen.SyntheticConfig{
		Objects: 3000, FeaturesPerSet: 3000, FeatureSets: 3, Vocab: 64, Clusters: 300, Seed: 5,
	})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, kind := range []IndexKind{SRT, IR2} {
		dirs := make([]string, 2)
		for i, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			db := stageWorld(Config{IndexKind: kind, PageSize: 1024}, objs, sets)
			if err := db.Build(); err != nil {
				t.Fatal(err)
			}
			dirs[i] = t.TempDir()
			if err := db.Save(dirs[i]); err != nil {
				t.Fatal(err)
			}
		}
		files, err := os.ReadDir(dirs[0])
		if err != nil {
			t.Fatal(err)
		}
		if len(files) < 5 {
			t.Fatalf("kind %d: Save wrote %d files, want a manifest and four page dumps", kind, len(files))
		}
		for _, f := range files {
			one, err := os.ReadFile(filepath.Join(dirs[0], f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			two, err := os.ReadFile(filepath.Join(dirs[1], f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(one, two) {
				t.Errorf("kind %d: %s differs between GOMAXPROCS 1 and 2", kind, f.Name())
			}
		}
	}
}

// TestAllocsBuild: bytes and allocations DB.Build makes per indexed item
// (objects plus features) on Figure 7's default data point. The byte
// budget sits above the 209 B measured once the bulk loader sorted
// (key, position) pairs and packed and encoded pages through one buffer
// each (624 B before). The allocation budget sits above the 0.02 measured
// once the SRT key stopped building hilbert.Values and a set's keyword sets
// were cut from one arena of interned ids (2.02 before: two Values and one
// keyword set per feature).
func TestAllocsBuild(t *testing.T) {
	if raceDetector {
		t.Skip("the race runtime allocates more per build (260 B and 0.02 allocations per item measured)")
	}
	const budget, allocBudget = 250, 0.1
	objs, sets := fig7World()
	items := len(objs)
	for _, fs := range sets {
		items += len(fs)
	}
	db := stageWorld(Config{}, objs, sets)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := db.Build(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perItem := float64(after.TotalAlloc-before.TotalAlloc) / float64(items)
	allocsPerItem := float64(after.Mallocs-before.Mallocs) / float64(items)
	t.Logf("DB.Build: %.0f B and %.2f allocations per item", perItem, allocsPerItem)
	if perItem > budget {
		t.Errorf("DB.Build allocates %.0f B per item, budget %d", perItem, budget)
	}
	if allocsPerItem > allocBudget {
		t.Errorf("DB.Build makes %.2f allocations per item, budget %v", allocsPerItem, allocBudget)
	}
}
