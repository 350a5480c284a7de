// Benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation (Section 8), at a reduced default scale so `go test -bench=.`
// completes in minutes. The cmd/stpqbench harness runs the same sweeps at
// full paper scale and prints the paper-style rows; these benchmarks give
// allocation counts and per-query latency for regression tracking.
//
// Sub-benchmark names follow the paper's panels, e.g.
// BenchmarkFig7/a_features=20000/SRT.
package stpq

import (
	"fmt"
	"sync"
	"testing"

	"stpq/internal/core"
	"stpq/internal/datagen"
	"stpq/internal/index"
)

// benchScale shrinks the paper's 100K default to keep bench runs short.
const (
	benchObjects  = 20_000
	benchFeatures = 20_000
	benchVocab    = 128
	benchClusters = 2_000
	benchQueries  = 64 // pre-generated workload, cycled by b.N
)

// fixtureKey identifies a cached dataset+engine combination.
type fixtureKey struct {
	objects, features, sets, vocab int
	kind                           index.Kind
	real                           bool
	// bufferPages is the capacity of each index's pool; 0 means the 256
	// pages every benchmark but the cold ones runs behind.
	bufferPages int
}

var (
	fixtureMu sync.Mutex
	fixtures  = map[fixtureKey]*core.Engine{}
	datasetMu sync.Mutex
	datasets  = map[fixtureKey]*datagen.Dataset{}
)

// benchDataset returns a cached dataset for the key (kind ignored).
func benchDataset(b *testing.B, key fixtureKey) *datagen.Dataset {
	b.Helper()
	datasetMu.Lock()
	defer datasetMu.Unlock()
	dk := key
	dk.kind, dk.bufferPages = 0, 0
	if ds, ok := datasets[dk]; ok {
		return ds
	}
	var ds *datagen.Dataset
	if key.real {
		ds = datagen.RealLike(datagen.RealLikeConfig{
			Hotels: key.objects, Restaurants: key.features, Seed: 1,
		})
	} else {
		ds = datagen.Synthetic(datagen.SyntheticConfig{
			Objects: key.objects, FeaturesPerSet: key.features, FeatureSets: key.sets,
			Vocab: key.vocab, Clusters: benchClusters, Seed: 1,
		})
	}
	datasets[dk] = ds
	return ds
}

// benchEngine returns a cached engine for the key.
func benchEngine(b *testing.B, key fixtureKey) *core.Engine {
	b.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if e, ok := fixtures[key]; ok {
		return e
	}
	ds := benchDataset(b, key)
	opts := index.Options{Kind: key.kind, VocabWidth: ds.VocabWidth, BufferPages: 256}
	if key.bufferPages > 0 {
		opts.BufferPages = key.bufferPages
	}
	oidx, err := index.BuildObjectIndex(ds.Objects, opts)
	if err != nil {
		b.Fatal(err)
	}
	fidxs := make([]*index.FeatureIndex, len(ds.FeatureSets))
	for i, fs := range ds.FeatureSets {
		if fidxs[i], err = index.BuildFeatureIndex(fs, opts); err != nil {
			b.Fatal(err)
		}
	}
	e, err := core.NewEngine(oidx, fidxs, core.Options{BatchSTDS: true})
	if err != nil {
		b.Fatal(err)
	}
	fixtures[key] = e
	return e
}

// synKey builds a synthetic fixture key with defaults.
func synKey(kind index.Kind) fixtureKey {
	return fixtureKey{objects: benchObjects, features: benchFeatures, sets: 2, vocab: benchVocab, kind: kind}
}

// realKey builds the real-surrogate fixture key (quarter of paper scale).
func realKey(kind index.Kind) fixtureKey {
	return fixtureKey{objects: 6_250, features: 19_750, sets: 1, kind: kind, real: true}
}

// runQueries cycles a pre-generated workload for b.N iterations.
func runQueries(b *testing.B, e *core.Engine, alg string, qs []core.Query) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		var err error
		if alg == "stds" {
			_, _, err = e.STDS(q)
		} else {
			_, _, err = e.STPS(q)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// runFresh is runQueries for STPS with a fresh core.Engine over e's indexes
// for every query. NewEngineOverParts only wraps the indexes — the buffer
// pools live in them — so what differs from one engine across queries is
// that each query builds the Voronoi cells it needs, as the paper's NN STPS
// does, and finds none an earlier query built: the case where no query
// repeats another's features.
func runFresh(b *testing.B, e *core.Engine, qs []core.Query) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh, err := core.NewEngineOverParts(e.ObjectParts(), 0, e.FeatureGroups(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := fresh.STPS(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// qc builds a query config with the default bench parameters.
func qc(variant core.Variant) datagen.QueryConfig {
	return datagen.QueryConfig{K: 10, Radius: 0.01, Lambda: 0.5, NumKeywords: 3, Variant: variant, Seed: 2}
}

// forKinds runs the body once per index kind.
func forKinds(b *testing.B, fn func(b *testing.B, kind index.Kind)) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		kind := kind
		b.Run(kind.String(), func(b *testing.B) { fn(b, kind) })
	}
}

// BenchmarkTable3 measures STDS (the baseline scan) at the default data
// point of Table 3 on both indexes.
func BenchmarkTable3(b *testing.B) {
	forKinds(b, func(b *testing.B, kind index.Kind) {
		key := synKey(kind)
		e := benchEngine(b, key)
		qs := benchDataset(b, key).GenQueries(benchQueries, qc(core.RangeScore))
		runQueries(b, e, "stds", qs)
	})
}

// BenchmarkFig7 sweeps the dataset parameters of Figure 7 with STPS
// (range score, synthetic).
func BenchmarkFig7(b *testing.B) {
	for _, f := range []int{10_000, 20_000, 40_000} {
		f := f
		b.Run(fmt.Sprintf("a_features=%d", f), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := synKey(kind)
				key.features = f
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, qc(core.RangeScore))
				runQueries(b, e, "stps", qs)
			})
		})
	}
	for _, o := range []int{10_000, 20_000, 40_000} {
		o := o
		b.Run(fmt.Sprintf("b_objects=%d", o), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := synKey(kind)
				key.objects = o
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, qc(core.RangeScore))
				runQueries(b, e, "stps", qs)
			})
		})
	}
	for _, c := range []int{2, 3, 4} {
		c := c
		b.Run(fmt.Sprintf("c_sets=%d", c), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := synKey(kind)
				key.sets = c
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, qc(core.RangeScore))
				runQueries(b, e, "stps", qs)
			})
		})
	}
	for _, w := range []int{64, 128, 256} {
		w := w
		b.Run(fmt.Sprintf("d_vocab=%d", w), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := synKey(kind)
				key.vocab = w
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, qc(core.RangeScore))
				runQueries(b, e, "stps", qs)
			})
		})
	}
}

// BenchmarkFig7Cold is Figure 7's smallest world behind 32-page pools — a
// few percent of each index — so nearly every page read is a miss and an
// eviction: the path BENCHMARK.json's range-cold workload measures, which
// the 256-page fixtures of the other benchmarks hardly touch.
func BenchmarkFig7Cold(b *testing.B) {
	b.Run("a_features=10000", func(b *testing.B) {
		forKinds(b, func(b *testing.B, kind index.Kind) {
			key := synKey(kind)
			key.features = 10_000
			key.bufferPages = 32
			e := benchEngine(b, key)
			qs := benchDataset(b, key).GenQueries(benchQueries, qc(core.RangeScore))
			runQueries(b, e, "stps", qs)
		})
	})
}

// BenchmarkBuild is DB.Build of Figure 7's default data point: the
// interning pass, then the object tree and both feature trees bulk-loaded
// at once. Adding the data to a fresh DB is not timed.
func BenchmarkBuild(b *testing.B) {
	objs, sets := fig7World()
	forKinds(b, func(b *testing.B, kind index.Kind) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			db := stageWorld(Config{IndexKind: IndexKind(kind)}, objs, sets)
			b.StartTimer()
			if err := db.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig8 sweeps the query parameters of Figure 8 on the real
// surrogate (range score).
func BenchmarkFig8(b *testing.B) {
	for _, r := range []float64{0.005, 0.01, 0.04} {
		r := r
		b.Run(fmt.Sprintf("a_radius=%v", r), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := realKey(kind)
				cfg := qc(core.RangeScore)
				cfg.Radius = r
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, cfg)
				runQueries(b, e, "stps", qs)
			})
		})
	}
	for _, k := range []int{5, 10, 40} {
		k := k
		b.Run(fmt.Sprintf("b_k=%d", k), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := realKey(kind)
				cfg := qc(core.RangeScore)
				cfg.K = k
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, cfg)
				runQueries(b, e, "stps", qs)
			})
		})
	}
	for _, l := range []float64{0.1, 0.5, 0.9} {
		l := l
		b.Run(fmt.Sprintf("c_lambda=%v", l), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := realKey(kind)
				cfg := qc(core.RangeScore)
				cfg.Lambda = l
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, cfg)
				runQueries(b, e, "stps", qs)
			})
		})
	}
	for _, n := range []int{1, 3, 9} {
		n := n
		b.Run(fmt.Sprintf("d_qkw=%d", n), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := realKey(kind)
				cfg := qc(core.RangeScore)
				cfg.NumKeywords = n
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, cfg)
				runQueries(b, e, "stps", qs)
			})
		})
	}
}

// BenchmarkFig9 sweeps the query parameters of Figure 9 on synthetic data
// (range score).
func BenchmarkFig9(b *testing.B) {
	sweeps := []struct {
		name string
		cfg  datagen.QueryConfig
	}{
		{"a_radius=0.005", withRadius(qc(core.RangeScore), 0.005)},
		{"a_radius=0.04", withRadius(qc(core.RangeScore), 0.04)},
		{"b_k=5", withK(qc(core.RangeScore), 5)},
		{"b_k=40", withK(qc(core.RangeScore), 40)},
		{"c_lambda=0.1", withLambda(qc(core.RangeScore), 0.1)},
		{"c_lambda=0.9", withLambda(qc(core.RangeScore), 0.9)},
		{"d_qkw=1", withQKw(qc(core.RangeScore), 1)},
		{"d_qkw=9", withQKw(qc(core.RangeScore), 9)},
	}
	for _, sw := range sweeps {
		sw := sw
		b.Run(sw.name, func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := synKey(kind)
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, sw.cfg)
				runQueries(b, e, "stps", qs)
			})
		})
	}
}

// BenchmarkFig10 is the influence-score scalability of Figure 10 at the
// default data point.
func BenchmarkFig10(b *testing.B) {
	for _, f := range []int{10_000, 40_000} {
		f := f
		b.Run(fmt.Sprintf("a_features=%d", f), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := synKey(kind)
				key.features = f
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, qc(core.InfluenceScore))
				runQueries(b, e, "stps", qs)
			})
		})
	}
}

// BenchmarkFig11 is the influence variant on the real surrogate (k sweep).
func BenchmarkFig11(b *testing.B) {
	for _, k := range []int{5, 10, 40} {
		k := k
		b.Run(fmt.Sprintf("a_k=%d", k), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := realKey(kind)
				cfg := qc(core.InfluenceScore)
				cfg.K = k
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, cfg)
				runQueries(b, e, "stps", qs)
			})
		})
	}
	for _, n := range []int{1, 9} {
		n := n
		b.Run(fmt.Sprintf("b_qkw=%d", n), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := realKey(kind)
				cfg := qc(core.InfluenceScore)
				cfg.NumKeywords = n
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, cfg)
				runQueries(b, e, "stps", qs)
			})
		})
	}
}

// BenchmarkFig12 is the influence variant on synthetic data (query
// parameters).
func BenchmarkFig12(b *testing.B) {
	sweeps := []struct {
		name string
		cfg  datagen.QueryConfig
	}{
		{"b_k=5", withK(qc(core.InfluenceScore), 5)},
		{"b_k=40", withK(qc(core.InfluenceScore), 40)},
		{"c_lambda=0.1", withLambda(qc(core.InfluenceScore), 0.1)},
		{"c_lambda=0.9", withLambda(qc(core.InfluenceScore), 0.9)},
		{"d_qkw=1", withQKw(qc(core.InfluenceScore), 1)},
		{"d_qkw=9", withQKw(qc(core.InfluenceScore), 9)},
	}
	for _, sw := range sweeps {
		sw := sw
		b.Run(sw.name, func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := synKey(kind)
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, sw.cfg)
				runQueries(b, e, "stps", qs)
			})
		})
	}
}

// BenchmarkFig13 is the nearest-neighbor variant's scalability (Voronoi
// costs included in the measured time: every query runs on a fresh engine,
// see runFresh).
func BenchmarkFig13(b *testing.B) {
	for _, f := range []int{10_000, 40_000} {
		f := f
		b.Run(fmt.Sprintf("a_features=%d", f), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := synKey(kind)
				key.features = f
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, qc(core.NearestNeighborScore))
				runFresh(b, e, qs)
			})
		})
	}
	for _, o := range []int{10_000, 40_000} {
		o := o
		b.Run(fmt.Sprintf("b_objects=%d", o), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := synKey(kind)
				key.objects = o
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, qc(core.NearestNeighborScore))
				runFresh(b, e, qs)
			})
		})
	}
}

// BenchmarkFig14 is the nearest-neighbor variant while varying k, a fresh
// engine per query as in BenchmarkFig13.
func BenchmarkFig14(b *testing.B) {
	for _, k := range []int{5, 10, 40} {
		k := k
		b.Run(fmt.Sprintf("a_real_k=%d", k), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := realKey(kind)
				cfg := qc(core.NearestNeighborScore)
				cfg.K = k
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, cfg)
				runFresh(b, e, qs)
			})
		})
		b.Run(fmt.Sprintf("b_synthetic_k=%d", k), func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := synKey(kind)
				cfg := qc(core.NearestNeighborScore)
				cfg.K = k
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(benchQueries, cfg)
				runFresh(b, e, qs)
			})
		})
	}
}

// Ablation benchmarks for the design choices called out in DESIGN.md.

// BenchmarkAblationBatchSTDS compares the batched score computation
// against the literal one-object-at-a-time Algorithm 1.
func BenchmarkAblationBatchSTDS(b *testing.B) {
	key := synKey(index.SRT)
	key.objects, key.features = 5_000, 5_000
	ds := benchDataset(b, key)
	for _, batch := range []bool{true, false} {
		batch := batch
		name := "batched"
		if !batch {
			name = "single"
		}
		b.Run(name, func(b *testing.B) {
			opts := index.Options{Kind: index.SRT, VocabWidth: ds.VocabWidth, BufferPages: 256}
			oidx, err := index.BuildObjectIndex(ds.Objects, opts)
			if err != nil {
				b.Fatal(err)
			}
			fidxs := make([]*index.FeatureIndex, len(ds.FeatureSets))
			for i, fs := range ds.FeatureSets {
				if fidxs[i], err = index.BuildFeatureIndex(fs, opts); err != nil {
					b.Fatal(err)
				}
			}
			e, err := core.NewEngine(oidx, fidxs, core.Options{BatchSTDS: batch})
			if err != nil {
				b.Fatal(err)
			}
			qs := ds.GenQueries(benchQueries, qc(core.RangeScore))
			runQueries(b, e, "stds", qs)
		})
	}
}

// BenchmarkAblationPulling compares the prioritized pulling strategy of
// Definition 5 against round-robin.
func BenchmarkAblationPulling(b *testing.B) {
	key := synKey(index.SRT)
	key.sets = 3
	ds := benchDataset(b, key)
	for _, pull := range []core.PullStrategy{core.PullPrioritized, core.PullRoundRobin} {
		pull := pull
		b.Run(pull.String(), func(b *testing.B) {
			opts := index.Options{Kind: index.SRT, VocabWidth: ds.VocabWidth, BufferPages: 256}
			oidx, err := index.BuildObjectIndex(ds.Objects, opts)
			if err != nil {
				b.Fatal(err)
			}
			fidxs := make([]*index.FeatureIndex, len(ds.FeatureSets))
			for i, fs := range ds.FeatureSets {
				if fidxs[i], err = index.BuildFeatureIndex(fs, opts); err != nil {
					b.Fatal(err)
				}
			}
			e, err := core.NewEngine(oidx, fidxs, core.Options{Pull: pull})
			if err != nil {
				b.Fatal(err)
			}
			qs := ds.GenQueries(benchQueries, qc(core.RangeScore))
			runQueries(b, e, "stps", qs)
		})
	}
}

// BenchmarkAblationCombinations compares the lazy combination lattice with
// the paper's eager materialization (at a reduced scale: for the range
// variant the lazy lattice must wade through invalid combinations that
// eager generation filters out, so it is orders of magnitude slower here).
func BenchmarkAblationCombinations(b *testing.B) {
	key := synKey(index.SRT)
	key.sets = 3
	key.objects, key.features = 2_000, 2_000
	ds := benchDataset(b, key)
	for _, mode := range []core.CombinationMode{core.CombinationsLazy, core.CombinationsEager} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			opts := index.Options{Kind: index.SRT, VocabWidth: ds.VocabWidth, BufferPages: 256}
			oidx, err := index.BuildObjectIndex(ds.Objects, opts)
			if err != nil {
				b.Fatal(err)
			}
			fidxs := make([]*index.FeatureIndex, len(ds.FeatureSets))
			for i, fs := range ds.FeatureSets {
				if fidxs[i], err = index.BuildFeatureIndex(fs, opts); err != nil {
					b.Fatal(err)
				}
			}
			e, err := core.NewEngine(oidx, fidxs, core.Options{Combinations: mode})
			if err != nil {
				b.Fatal(err)
			}
			qs := ds.GenQueries(benchQueries, qc(core.RangeScore))
			runQueries(b, e, "stps", qs)
		})
	}
}

// query-config helpers.

func withRadius(c datagen.QueryConfig, r float64) datagen.QueryConfig {
	c.Radius = r
	return c
}

func withK(c datagen.QueryConfig, k int) datagen.QueryConfig {
	c.K = k
	return c
}

func withLambda(c datagen.QueryConfig, l float64) datagen.QueryConfig {
	c.Lambda = l
	return c
}

func withQKw(c datagen.QueryConfig, n int) datagen.QueryConfig {
	c.NumKeywords = n
	return c
}

// BenchmarkAblationVoronoiCache measures the NN variant with a fresh engine
// per query — every query builds the cells it needs, as the paper's figures
// do — against one engine across queries, whose cell store keeps every cell
// an earlier query built (the paper's Section 8.5 suggestion for static
// data: "pre-computed in a special structure").
func BenchmarkAblationVoronoiCache(b *testing.B) {
	key := synKey(index.SRT)
	key.objects, key.features = 10_000, 10_000
	ds := benchDataset(b, key)
	e := benchEngine(b, key)
	qs := ds.GenQueries(benchQueries, qc(core.NearestNeighborScore))
	b.Run("fresh-engine", func(b *testing.B) { runFresh(b, e, qs) })
	b.Run("one-engine", func(b *testing.B) {
		e, err := core.NewEngineOverParts(e.ObjectParts(), 0, e.FeatureGroups(), core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// One untimed pass fills the store, as a precomputed structure would.
		for _, q := range qs {
			if _, _, err := e.STPS(q); err != nil {
				b.Fatal(err)
			}
		}
		runQueries(b, e, "stps", qs)
	})
}

// BenchmarkConcurrentTopK measures parallel query throughput — the
// serving scenario of internal/serve — with one goroutine per CPU
// (GOMAXPROCS) hammering the same engine through session views. Compare
// against BenchmarkTable3/BenchmarkFig7 single-threaded latency to see
// the scaling of the concurrent read path.
func BenchmarkConcurrentTopK(b *testing.B) {
	forKinds(b, func(b *testing.B, kind index.Kind) {
		for _, alg := range []string{"stps", "stds"} {
			alg := alg
			b.Run(alg, func(b *testing.B) {
				e := benchEngine(b, synKey(kind))
				qs := benchDataset(b, synKey(kind)).GenQueries(benchQueries, qc(core.RangeScore))
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						q := qs[i%len(qs)]
						i++
						var err error
						if alg == "stds" {
							_, _, err = e.STDS(q)
						} else {
							_, _, err = e.STPS(q)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
				})
			})
		}
	})
}
