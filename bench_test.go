// Benchmarks: one testing.B benchmark per table/figure of the paper's
// evaluation (Section 8), driven by the benchmark rows of sweep_test.go's
// sweep table, at a reduced scale so `go test -bench=.` completes in
// minutes; they give allocation counts and per-query latency for
// regression tracking. The same table's experiment rows are the paper-scale
// sweeps `make experiments` prints (TestExperiments, paper_test.go). The
// fixtures below serve both.
//
// Sub-benchmark names follow the paper's panels, e.g.
// BenchmarkFig7/a_features=20000/SRT.
package stpq

import (
	"cmp"
	"sync"
	"testing"

	"stpq/internal/core"
	"stpq/internal/datagen"
	"stpq/internal/index"
)

// benchQueries is the pre-generated workload a benchmark cycles through b.N.
const benchQueries = 64

// kinds are the index kinds every figure point runs on, in column order.
var kinds = []index.Kind{index.SRT, index.IR2}

// fixtureKey identifies a cached dataset+engine combination. A real
// surrogate's objects and features are its hotels and restaurants.
type fixtureKey struct {
	objects, features, sets, vocab, clusters int
	kind                                     index.Kind
	real                                     bool
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
func benchDataset(tb testing.TB, key fixtureKey) *datagen.Dataset {
	tb.Helper()
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
			Vocab: key.vocab, Clusters: key.clusters, Seed: 1,
		})
	}
	datasets[dk] = ds
	return ds
}

// benchEngine returns a cached engine for the key.
func benchEngine(tb testing.TB, key fixtureKey) *core.Engine {
	tb.Helper()
	fixtureMu.Lock()
	defer fixtureMu.Unlock()
	if e, ok := fixtures[key]; ok {
		return e
	}
	e := newEngine(tb, benchDataset(tb, key), key.kind, cmp.Or(key.bufferPages, 256), core.Options{BatchSTDS: true})
	fixtures[key] = e
	return e
}

// newEngine indexes ds with the given index kind, pool pages per index and
// engine options.
func newEngine(tb testing.TB, ds *datagen.Dataset, kind index.Kind, pages int, eopts core.Options) *core.Engine {
	tb.Helper()
	opts := index.Options{Kind: kind, VocabWidth: ds.VocabWidth, BufferPages: pages}
	oidx, err := index.BuildObjectIndex(ds.Objects, opts)
	if err != nil {
		tb.Fatal(err)
	}
	fidxs := make([]*index.FeatureIndex, len(ds.FeatureSets))
	for i, fs := range ds.FeatureSets {
		if fidxs[i], err = index.BuildFeatureIndex(fs, opts); err != nil {
			tb.Fatal(err)
		}
	}
	e, err := core.NewEngine(oidx, fidxs, eopts)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// dropFixtures forgets every cached dataset and engine, so that a sweep
// over paper-scale worlds holds one world at a time.
func dropFixtures() {
	fixtureMu.Lock()
	datasetMu.Lock()
	clear(fixtures)
	clear(datasets)
	datasetMu.Unlock()
	fixtureMu.Unlock()
}

// synKey is the benchmark rows' synthetic fixture: Table 2's defaults at a
// fifth of the paper's cardinalities.
func synKey(kind index.Kind) fixtureKey {
	return sweepRow{scale: 0.2}.key(kind)
}

// runQueries cycles a pre-generated workload for b.N iterations.
func runQueries(b *testing.B, e *core.Engine, alg Algorithm, qs []core.Query) {
	b.Helper()
	var sum queryCounts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := qs[i%len(qs)]
		var (
			st  core.Stats
			err error
		)
		if alg == STDS {
			_, st, err = e.STDS(q)
		} else {
			_, st, err = e.STPS(q)
		}
		if err != nil {
			b.Fatal(err)
		}
		sum.add(&st)
	}
	sum.report(b)
}

// runFresh is runQueries for STPS with a fresh engine (freshEngine) for
// every query.
func runFresh(b *testing.B, e *core.Engine, qs []core.Query) {
	b.Helper()
	var sum queryCounts
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := freshEngine(b, e).STPS(qs[i%len(qs)])
		if err != nil {
			b.Fatal(err)
		}
		sum.add(&st)
	}
	sum.report(b)
}

// queryCounts sums the deterministic costs of a benchmark's queries, from
// the core.Stats each returns, so that `make bench-compare` prints them
// beside ns/op.
type queryCounts struct {
	reads, leafExp, pulled, combos float64
}

func (c *queryCounts) add(st *core.Stats) {
	c.reads += float64(st.LogicalReads)
	c.leafExp += float64(st.LeafExpansions)
	c.pulled += float64(st.FeaturesPulled)
	c.combos += float64(st.Combinations)
}

// report reports each count per query.
func (c *queryCounts) report(b *testing.B) {
	n := float64(b.N)
	b.ReportMetric(c.reads/n, "reads/op")
	b.ReportMetric(c.leafExp/n, "leafexp/op")
	b.ReportMetric(c.pulled/n, "pulled/op")
	b.ReportMetric(c.combos/n, "combos/op")
}

// freshEngine is a new core.Engine over e's indexes. NewEngineOverParts
// only wraps the indexes — the buffer pools live in them — so what differs
// from one engine across queries is that each query builds the Voronoi
// cells it needs, as the paper's NN STPS does, and finds none an earlier
// query built: the case where no query repeats another's features.
func freshEngine(tb testing.TB, e *core.Engine) *core.Engine {
	fresh, err := core.NewEngineOverParts(e.ObjectParts(), 0, e.FeatureGroups(), core.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return fresh
}

// benchFigure runs fig's benchmark rows: one sub-benchmark per row (none
// at a default point) and index kind. NN rows run a fresh engine per query.
func benchFigure(b *testing.B, fig string) {
	for _, r := range sweepTable {
		if !r.bench || r.fig != fig {
			continue
		}
		run := func(b *testing.B) {
			forKinds(b, func(b *testing.B, kind index.Kind) {
				key := r.key(kind)
				e := benchEngine(b, key)
				qs := benchDataset(b, key).GenQueries(r.queries, r.queryConfig())
				if r.variant == NearestNeighbor {
					runFresh(b, e, qs)
				} else {
					runQueries(b, e, r.alg, qs)
				}
			})
		}
		if r.param == atDefault {
			run(b)
		} else {
			b.Run(r.name(), run)
		}
	}
}

// qc builds a query config with the default bench parameters.
func qc(variant core.Variant) datagen.QueryConfig {
	return sweepRow{variant: Variant(variant), bench: true}.queryConfig()
}

// forKinds runs the body once per index kind.
func forKinds(b *testing.B, fn func(b *testing.B, kind index.Kind)) {
	for _, kind := range kinds {
		b.Run(kind.String(), func(b *testing.B) { fn(b, kind) })
	}
}

// BenchmarkTable3 measures STDS (the baseline scan) at the default data
// point of Table 3 on both indexes.
func BenchmarkTable3(b *testing.B) { benchFigure(b, "Table3") }

// BenchmarkFig7 sweeps the dataset parameters of Figure 7 with STPS
// (range score, synthetic).
func BenchmarkFig7(b *testing.B) { benchFigure(b, "Fig7") }

// BenchmarkFig7Cold is Figure 7's smallest world behind 32-page pools — a
// few percent of each index — so nearly every page read is a miss and an
// eviction: the path BENCHMARK.json's range-cold workload measures, which
// the 256-page fixtures of the other benchmarks hardly touch.
func BenchmarkFig7Cold(b *testing.B) { benchFigure(b, "Fig7Cold") }

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
func BenchmarkFig8(b *testing.B) { benchFigure(b, "Fig8") }

// BenchmarkFig9 sweeps the query parameters of Figure 9 on synthetic data
// (range score).
func BenchmarkFig9(b *testing.B) { benchFigure(b, "Fig9") }

// BenchmarkFig10 is the influence-score scalability of Figure 10.
func BenchmarkFig10(b *testing.B) { benchFigure(b, "Fig10") }

// BenchmarkFig11 is the influence variant on the real surrogate.
func BenchmarkFig11(b *testing.B) { benchFigure(b, "Fig11") }

// BenchmarkFig12 is the influence variant on synthetic data (query
// parameters).
func BenchmarkFig12(b *testing.B) { benchFigure(b, "Fig12") }

// BenchmarkFig13 is the nearest-neighbor variant's scalability (Voronoi
// costs included in the measured time: every query runs on a fresh engine,
// see runFresh).
func BenchmarkFig13(b *testing.B) { benchFigure(b, "Fig13") }

// BenchmarkFig14 is the nearest-neighbor variant while varying k, a fresh
// engine per query as in BenchmarkFig13.
func BenchmarkFig14(b *testing.B) { benchFigure(b, "Fig14") }

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
			e := newEngine(b, ds, index.SRT, 256, core.Options{BatchSTDS: batch})
			qs := ds.GenQueries(benchQueries, qc(core.RangeScore))
			runQueries(b, e, STDS, qs)
		})
	}
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
		runQueries(b, e, STPS, qs)
	})
}

// BenchmarkConcurrentTopK measures parallel query throughput — the
// serving scenario of internal/serve — with one goroutine per CPU
// (GOMAXPROCS) hammering the same engine through session views. Compare
// against BenchmarkTable3/BenchmarkFig7 single-threaded latency to see
// the scaling of the concurrent read path.
func BenchmarkConcurrentTopK(b *testing.B) {
	forKinds(b, func(b *testing.B, kind index.Kind) {
		for _, alg := range []Algorithm{STPS, STDS} {
			b.Run([...]string{"stps", "stds"}[alg], func(b *testing.B) {
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
						if alg == STDS {
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
