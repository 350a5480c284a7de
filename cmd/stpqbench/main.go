// Command stpqbench regenerates every table and figure of the paper's
// experimental evaluation (Section 8): Table 3 and Figures 7–14. Each
// experiment sweeps one dataset or query parameter, averages the execution
// time of a random query workload, and prints the time split into modeled
// I/O and measured CPU — the paper's dark/white stacked bars.
//
// Usage:
//
//	stpqbench -exp all                 # everything (long)
//	stpqbench -exp fig8 -queries 200   # one experiment
//	stpqbench -exp table3 -scale 0.1   # shrink datasets 10x for a quick run
//
// Defaults follow Table 2's bold entries: |O| = |F_i| = 100K, c = 2, 128
// indexed keywords, r = 0.01, k = 10, λ = 0.5, 3 queried keywords. The
// -scale flag multiplies dataset cardinalities (the paper's absolute
// sizes are reproduced with -scale 1).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"stpq/internal/core"
	"stpq/internal/datagen"
	"stpq/internal/index"
	"stpq/internal/storage"
)

// experiment parameter defaults (Table 2, bold).
const (
	defObjects  = 100_000
	defFeatures = 100_000
	defSets     = 2
	defVocab    = 128
	defRadius   = 0.01
	defK        = 10
	defLambda   = 0.5
	defQKw      = 3
)

// bench bundles the run-wide configuration.
type bench struct {
	queries       int
	table3Queries int
	scale         float64
	seed          int64
	cost          storage.CostModel
	buffer        int
	jsonPath      string // -json: machine-readable records destination

	curExp   string // experiment currently running (stamps Records)
	records  []Record
	datasets map[string]*datagen.Dataset
	engines  map[string]*core.Engine
}

// out buffers the report; header and line flush it so progress appears one
// row at a time even when stdout is redirected to a file.
var out = bufio.NewWriter(os.Stdout)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stpqbench: ")
	var (
		exp     = flag.String("exp", "all", "experiment: all | table3 | fig7 | fig8 | fig9 | fig10 | fig11 | fig12 | fig13 | fig14 | cluster")
		queries = flag.Int("queries", 100, "queries per data point (the paper used 1000)")
		t3q     = flag.Int("table3queries", 3, "queries per STDS data point (STDS is slow by design)")
		scale   = flag.Float64("scale", 1.0, "dataset cardinality multiplier")
		seed    = flag.Int64("seed", 1, "random seed")
		iocost  = flag.Duration("iocost", 100*time.Microsecond, "modeled cost per physical page read")
		buffer  = flag.Int("buffer", 256, "buffer pool pages per index")
		jsonOut = flag.String("json", "", "also write per-datapoint records (quantiles + phase breakdown) to this file")
	)
	flag.Parse()

	b := &bench{
		queries:       *queries,
		table3Queries: *t3q,
		scale:         *scale,
		seed:          *seed,
		cost:          storage.CostModel{PerPage: *iocost},
		buffer:        *buffer,
		jsonPath:      *jsonOut,
		datasets:      make(map[string]*datagen.Dataset),
		engines:       make(map[string]*core.Engine),
	}

	all := map[string]func(){
		"table3":  b.table3,
		"fig10cd": b.fig10cd,
		"fig13a":  b.fig13a,
		"fig13b":  b.fig13b,
		"fig7":    b.fig7,
		"fig8":    b.fig8,
		"fig9":    b.fig9,
		"fig10":   b.fig10,
		"fig11":   b.fig11,
		"fig12":   b.fig12,
		"fig13":   b.fig13,
		"fig14":   b.fig14,
		"cluster": b.clusterExp,
	}
	order := []string{"table3", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "cluster"}

	start := time.Now()
	runExp := func(name string) {
		b.curExp = name
		all[name]()
	}
	if *exp == "all" {
		for _, name := range order {
			runExp(name)
		}
	} else if _, ok := all[*exp]; ok {
		runExp(*exp)
	} else {
		log.Printf("unknown experiment %q", *exp)
		flag.Usage()
		os.Exit(2)
	}
	fmt.Fprintf(out, "\ntotal harness time: %v\n", time.Since(start).Round(time.Second))
	out.Flush()
	if b.jsonPath != "" {
		if err := writeRecords(b.jsonPath, b.records); err != nil {
			log.Fatal(err)
		}
		log.Printf("wrote %d records to %s", len(b.records), b.jsonPath)
	}
}

// scaled applies the -scale factor with a floor.
func (b *bench) scaled(n int) int {
	v := int(float64(n) * b.scale)
	if v < 1000 {
		v = 1000
	}
	return v
}

// synthetic returns (building and caching) the synthetic dataset with the
// given cardinalities.
func (b *bench) synthetic(objects, features, sets, vocab int) *datagen.Dataset {
	key := fmt.Sprintf("syn/%d/%d/%d/%d", objects, features, sets, vocab)
	if ds, ok := b.datasets[key]; ok {
		return ds
	}
	clusters := int(10_000 * b.scale)
	if clusters < 200 {
		clusters = 200
	}
	ds := datagen.Synthetic(datagen.SyntheticConfig{
		Objects: objects, FeaturesPerSet: features, FeatureSets: sets,
		Vocab: vocab, Clusters: clusters, Seed: b.seed,
	})
	b.datasets[key] = ds
	return ds
}

// real returns the Factual-like dataset.
func (b *bench) real() *datagen.Dataset {
	key := "real"
	if ds, ok := b.datasets[key]; ok {
		return ds
	}
	ds := datagen.RealLike(datagen.RealLikeConfig{
		Hotels:      b.scaled(25_000),
		Restaurants: b.scaled(79_000),
		Seed:        b.seed,
	})
	b.datasets[key] = ds
	return ds
}

// engine builds (and caches) an engine over ds with the given index kind.
func (b *bench) engine(dsKey string, ds *datagen.Dataset, kind index.Kind) *core.Engine {
	key := fmt.Sprintf("%s/%v", dsKey, kind)
	if e, ok := b.engines[key]; ok {
		return e
	}
	opts := index.Options{Kind: kind, VocabWidth: ds.VocabWidth, BufferPages: b.buffer}
	oidx, err := index.BuildObjectIndex(ds.Objects, opts)
	if err != nil {
		log.Fatal(err)
	}
	fidxs := make([]*index.FeatureIndex, len(ds.FeatureSets))
	for i, fs := range ds.FeatureSets {
		fidxs[i], err = index.BuildFeatureIndex(fs, opts)
		if err != nil {
			log.Fatal(err)
		}
	}
	e, err := core.NewEngine(oidx, fidxs, b.options())
	if err != nil {
		log.Fatal(err)
	}
	b.engines[key] = e
	return e
}

// options are the engine options of every engine the harness builds.
func (b *bench) options() core.Options {
	return core.Options{BatchSTDS: true, CostModel: b.cost}
}

// dsKeyOf reconstructs the dataset cache key for engine caching.
func dsKeyOf(ds *datagen.Dataset) string {
	return fmt.Sprintf("%p", ds)
}

// run executes the workload and returns per-query average stats. With
// -json it additionally appends a Record (quantiles and phase breakdown)
// labeled with the current experiment, the sweep row and the index kind.
func (b *bench) run(label, idx, alg string, e *core.Engine, qs []core.Query) core.Stats {
	var acc core.Stats
	per := make([]core.Stats, 0, len(qs))
	mc := startMemCount()
	for _, q := range qs {
		var (
			st  core.Stats
			err error
		)
		// Tracing is only paid for when records are collected: the per-phase
		// breakdown in each Record comes from the query span trees.
		q.Trace = b.jsonPath != ""
		switch {
		case alg == "stds":
			_, st, err = e.STDS(q)
		case q.Variant == core.NearestNeighborScore:
			// A fresh engine over the same indexes (and pools) per NN query:
			// each builds the Voronoi cells it needs, as Figures 13–14
			// measure, rather than finding an earlier query's in the
			// engine's cell store.
			var fresh *core.Engine
			if fresh, err = core.NewEngineOverParts(e.ObjectParts(), 0, e.FeatureGroups(), b.options()); err == nil {
				_, st, err = fresh.STPS(q)
			}
		default:
			_, st, err = e.STPS(q)
		}
		if err != nil {
			log.Fatal(err)
		}
		acc.Add(st)
		per = append(per, st)
	}
	if b.jsonPath != "" {
		rec := newRecord(b.curExp, strings.TrimSpace(label), idx, alg, qs, per)
		rec.AllocsPerOp, rec.BytesPerOp = mc.perOp(len(qs))
		b.records = append(b.records, rec)
	}
	return acc.Scale(len(qs))
}

// cell formats a stats cell as "io+cpu=total" in milliseconds.
func cell(st core.Stats) string {
	return fmt.Sprintf("%7.1f+%7.1f=%8.1f",
		ms(st.IOTime), ms(st.CPUTime), ms(st.Total()))
}

// vorCell formats an NN-variant cell with the Voronoi share marked (the
// striped bar segments of Figures 13–14).
func (b *bench) vorCell(st core.Stats) string {
	return fmt.Sprintf("%8.1f (voronoi: io %6.1f cpu %6.1f)",
		ms(st.Total()), ms(b.cost.IOTime(st.VoronoiReads)), ms(st.VoronoiCPUTime))
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// header prints a section header.
func header(title string) {
	fmt.Fprintf(out, "\n=== %s ===\n", title)
	out.Flush()
}

// line prints one sweep row and flushes, so long sweeps report
// incrementally.
func line(label string, cols ...string) {
	fmt.Fprintf(out, "%-28s %s\n", label, strings.Join(cols, "  "))
	out.Flush()
}
