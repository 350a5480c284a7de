package main

import (
	"fmt"
	"math"

	"stpq"
	"stpq/internal/core"
	"stpq/internal/datagen"
	"stpq/internal/index"
	"stpq/internal/kwset"
)

// world is one workload's generated inputs, in the two forms the benchmark
// needs: datagen's (keyword ids, for the oracle and the layer drivers) and
// the public API's (keyword strings, for the engine under test). The
// spellings — sets "set1"…, keywords "kw<id>" — are those of stpqd
// -synthetic, so a child stpqd given the same seed holds the same data.
type world struct {
	ds      *datagen.Dataset
	objects []stpq.Object
	sets    [][]stpq.Feature
	queries []core.Query // the oracle's form of pub, index for index
	pub     []stpq.Query
	// Every pass asks per queries: the first shared of them are the same in
	// all passes, the others are new in each, so that a run's percentiles
	// rest on as many distinct queries as it has time for.
	per, shared int
}

// at returns the position in queries and pub of query idx of pass n.
func (wd *world) at(n, idx int) int {
	if idx < wd.shared {
		return idx
	}
	return n*(wd.per-wd.shared) + idx
}

func setName(i int) string { return fmt.Sprintf("set%d", i+1) }

func keywordNames(set kwset.Set) []string {
	var kws []string
	set.ForEach(func(id int) { kws = append(kws, fmt.Sprintf("kw%d", id)) })
	return kws
}

func publicObject(o index.Object) stpq.Object {
	return stpq.Object{ID: o.ID, X: o.Location.X, Y: o.Location.Y}
}

func publicFeature(f index.Feature) stpq.Feature {
	return stpq.Feature{ID: f.ID, X: f.Location.X, Y: f.Location.Y, Score: f.Score, Keywords: keywordNames(f.Keywords)}
}

func publicQuery(q core.Query) stpq.Query {
	kws := make(map[string][]string, len(q.Keywords))
	for i, set := range q.Keywords {
		kws[setName(i)] = keywordNames(set)
	}
	return stpq.Query{
		K: q.K, Radius: q.Radius, Lambda: q.Lambda, Keywords: kws,
		Variant: stpq.Variant(q.Variant), Algorithm: stpq.STPS,
	}
}

// scaled shrinks a cardinality for the smoke test, keeping enough items
// for a top-10 answer.
func scaled(n int, scale float64) int {
	return int(math.Max(200, math.Round(float64(n)*scale)))
}

// newWorld generates the workload's dataset from the seed and, from seed+6
// (the defaults are data seed 1, query seed 7), the queries of the warm-up
// pass and of the given number of passes after it.
func newWorld(w workload, seed int64, scale float64, passes int) *world {
	items := scaled(w.Items, scale)
	ds := datagen.Synthetic(datagen.SyntheticConfig{
		Objects: items, FeaturesPerSet: items, FeatureSets: 2, Vocab: vocabSize, Seed: seed,
	})
	wd := &world{ds: ds, objects: make([]stpq.Object, len(ds.Objects))}
	_, wd.per, wd.shared = w.plan()
	n := wd.at(passes, wd.per-1) + 1
	for i, o := range ds.Objects {
		wd.objects[i] = publicObject(o)
	}
	for _, fs := range ds.FeatureSets {
		feats := make([]stpq.Feature, len(fs))
		for j, f := range fs {
			feats[j] = publicFeature(f)
		}
		wd.sets = append(wd.sets, feats)
	}
	wd.queries = ds.GenQueries(n, datagen.QueryConfig{
		K: topK, Radius: w.Radius, Lambda: lambda, NumKeywords: numKeywords,
		Variant: core.Variant(w.Variant), Seed: seed + 6,
	})
	wd.pub = make([]stpq.Query, n)
	for i, q := range wd.queries {
		wd.pub[i] = publicQuery(q)
	}
	return wd
}

// config is the engine configuration of the workload.
func (w workload) config() stpq.Config {
	return stpq.Config{BufferPages: w.Buffer, ShardCount: w.Shards, ShardStrategy: stpq.ShardHilbert}
}

// build loads the world into a fresh DB and builds its indexes: the
// set-up a user pays between having the data and the first query.
func (wd *world) build(cfg stpq.Config) (*stpq.DB, error) {
	db := stpq.New(cfg)
	db.AddObjects(wd.objects)
	for i, feats := range wd.sets {
		db.AddFeatureSet(setName(i), feats)
	}
	if err := db.Build(); err != nil {
		return nil, err
	}
	return db, nil
}
