package stpq

// sweep_test.go is the paper's evaluation (Section 8: Table 3 and Figures
// 7–14) as one table of figure points. Three consumers read it:
//
//   - the figure benchmarks of bench_test.go run its benchmark rows, at a
//     fifth of the paper's synthetic cardinalities (a quarter of the real
//     surrogate's) so that `go test -bench` finishes in minutes;
//   - TestPaperShapes (paper_test.go) runs its experiment rows at a tenth
//     of the paper's cardinalities and asserts the paper's claims on page
//     reads and counts;
//   - TestExperiments (paper_test.go, `make experiments`) runs its
//     experiment rows at their own scale and prints EXPERIMENTS.md's tables.
//
// Every row runs on both index kinds, SRT and IR².

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"stpq/internal/core"
	"stpq/internal/datagen"
	"stpq/internal/index"
)

// Table 2's swept values. Cardinalities are at paper scale; a row's scale
// multiplies them.
var (
	cardinalities = []float64{50_000, 100_000, 500_000, 1_000_000}
	featureCounts = []float64{2, 3, 4, 5}
	vocabSizes    = []float64{64, 128, 192, 256}
	radii         = []float64{0.005, 0.01, 0.02, 0.04, 0.08}
	ks            = []float64{5, 10, 20, 40, 80}
	lambdas       = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	queriedKws    = []float64{1, 3, 5, 7, 9}
)

// Table 2's defaults (bold) and the real surrogate's paper-scale sizes.
const (
	defObjects     = 100_000
	defFeatures    = 100_000
	defSets        = 2
	defVocab       = 128
	defClusters    = 10_000
	defRadius      = 0.01
	defK           = 10
	defLambda      = 0.5
	defQKw         = 3
	realHotels     = 25_000
	realRestaurant = 79_000
)

// param is the one parameter a panel sweeps.
type param int

const (
	atDefault param = iota // a figure's default point: nothing swept
	features               // |F_i|
	objects                // |O|
	sets                   // c, the number of feature sets
	vocab                  // indexed keywords
	radius                 // r
	topK                   // k
	lambda                 // λ
	qkw                    // queried keywords per feature set
)

// paramNames spells each parameter in a benchmark name, in an experiment
// row's label, in its panel's "vary" line, and the label's value format.
var paramNames = [...]struct{ bench, cell, vary, format string }{
	atDefault: {},
	features:  {"features", "|F_i|", "|F_i|", "%.0f"},
	objects:   {"objects", "|O|", "|O|", "%.0f"},
	sets:      {"sets", "c", "c", "%.0f"},
	vocab:     {"vocab", "keywords", "indexed keywords", "%.0f"},
	radius:    {"radius", "r", "r", "%.3f"},
	topK:      {"k", "k", "k", "%.0f"},
	lambda:    {"lambda", "lambda", "lambda", "%.1f"},
	qkw:       {"qkw", "keywords", "queried keywords", "%.0f"},
}

// sweepRow is one figure point.
type sweepRow struct {
	fig   string // "Table3", "Fig7" … "Fig14"; "Fig7Cold" is a benchmark-only point
	panel string // "a", "b", …; Figure 14's are "a_real" and "b_synthetic"
	param param
	// value is the swept parameter's value; a cardinality is given at
	// paper scale.
	value float64
	// real selects the real-data surrogate (hotels as data objects, one
	// feature set of restaurants) instead of the synthetic data.
	real    bool
	variant Variant
	alg     Algorithm
	// scale multiplies the paper's cardinalities (at least 1,000 each).
	scale   float64
	queries int
	// bench marks a benchmark row. Benchmark rows draw their queries from
	// seed 2, experiment rows from seed 1.
	bench bool
	// pool is the buffer pages per index; 0 is 256.
	pool int
	// omit is why an experiment prints this point instead of measuring it.
	omit string
}

// sweepTable holds every figure point: the experiment rows in figure
// order, then the benchmark rows.
var sweepTable = buildSweepTable()

func buildSweepTable() []sweepRow {
	var t []sweepRow
	add := func(proto sweepRow, panel string, p param, values ...float64) {
		for _, v := range values {
			r := proto
			r.panel, r.param, r.value = panel, p, v
			t = append(t, r)
		}
	}
	scalability := func(proto sweepRow) {
		add(proto, "a", features, cardinalities...)
		add(proto, "b", objects, cardinalities...)
		add(proto, "c", sets, featureCounts...)
		add(proto, "d", vocab, vocabSizes...)
	}
	queryParams := func(proto sweepRow) {
		add(proto, "a", radius, radii...)
		add(proto, "b", topK, ks...)
		add(proto, "c", lambda, lambdas...)
		add(proto, "d", qkw, queriedKws...)
	}

	// Experiment rows. STDS (Table 3) and the NN variant (Figures 13–14)
	// cost seconds per query, so they run few queries; the NN figures run
	// at a quarter of the paper's scale, after two full-scale anchors.
	scalability(sweepRow{fig: "Table3", alg: STDS, scale: 1, queries: 10})
	scalability(sweepRow{fig: "Fig7", scale: 1, queries: 50})
	queryParams(sweepRow{fig: "Fig8", real: true, scale: 1, queries: 50})
	queryParams(sweepRow{fig: "Fig9", scale: 1, queries: 50})
	influence := sweepRow{fig: "Fig10", variant: Influence, scale: 1, queries: 50}
	add(influence, "a", features, cardinalities...)
	add(influence, "b", objects, cardinalities...)
	// The c and keyword panels run at a tenth of the scale, and c stops at
	// 2: from c = 3 on a query takes seconds (EXPERIMENTS.md note 1).
	influence.scale = 0.1
	add(influence, "c", sets, 2)
	cOmitted := influence
	cOmitted.omit = "omitted: seconds per query; each strong feature is a candidate with |relevant|^(c-1) others (EXPERIMENTS.md note 1)"
	add(cOmitted, "c", sets, 3, 4, 5)
	add(influence, "d", vocab, vocabSizes...)
	fig11 := sweepRow{fig: "Fig11", real: true, variant: Influence, scale: 1, queries: 50}
	add(fig11, "a", topK, ks...)
	add(fig11, "b", qkw, queriedKws...)
	queryParams(sweepRow{fig: "Fig12", variant: Influence, scale: 1, queries: 50})
	nn := sweepRow{fig: "Fig13", variant: NearestNeighbor, scale: 1, queries: 8}
	add(nn, "a", features, 50_000, 100_000)
	nn.scale = 0.25
	add(nn, "a", features, cardinalities...)
	add(nn, "b", objects, cardinalities...)
	nn.fig = "Fig14"
	realNN := nn
	realNN.real = true
	add(realNN, "a_real", topK, ks...)
	add(nn, "b_synthetic", topK, ks...)

	// Benchmark rows: 20 K objects and features (the real surrogate at a
	// quarter of its size), 64 queries cycled by b.N.
	syn := sweepRow{bench: true, scale: 0.2, queries: benchQueries}
	real := sweepRow{bench: true, real: true, scale: 0.25, queries: benchQueries}
	in := func(fig string, proto sweepRow) sweepRow { proto.fig = fig; return proto }
	stds := in("Table3", syn)
	stds.alg = STDS
	add(stds, "", atDefault, 0)
	add(in("Fig7", syn), "a", features, 50_000, 100_000, 200_000)
	add(in("Fig7", syn), "b", objects, 50_000, 100_000, 200_000)
	add(in("Fig7", syn), "c", sets, 2, 3, 4)
	add(in("Fig7", syn), "d", vocab, 64, 128, 256)
	cold := in("Fig7Cold", syn)
	cold.pool = 32 // a few percent of each index: nearly every read misses
	add(cold, "a", features, 50_000)
	add(in("Fig8", real), "a", radius, 0.005, 0.01, 0.04)
	add(in("Fig8", real), "b", topK, 5, 10, 40)
	add(in("Fig8", real), "c", lambda, 0.1, 0.5, 0.9)
	add(in("Fig8", real), "d", qkw, 1, 3, 9)
	add(in("Fig9", syn), "a", radius, 0.005, 0.04)
	add(in("Fig9", syn), "b", topK, 5, 40)
	add(in("Fig9", syn), "c", lambda, 0.1, 0.9)
	add(in("Fig9", syn), "d", qkw, 1, 9)
	syn.variant, real.variant = Influence, Influence
	add(in("Fig10", syn), "a", features, 50_000, 200_000)
	add(in("Fig11", real), "a", topK, 5, 10, 40)
	add(in("Fig11", real), "b", qkw, 1, 9)
	add(in("Fig12", syn), "b", topK, 5, 40)
	add(in("Fig12", syn), "c", lambda, 0.1, 0.9)
	add(in("Fig12", syn), "d", qkw, 1, 9)
	syn.variant, real.variant = NearestNeighbor, NearestNeighbor
	add(in("Fig13", syn), "a", features, 50_000, 200_000)
	add(in("Fig13", syn), "b", objects, 50_000, 200_000)
	for _, k := range []float64{5, 10, 40} {
		add(in("Fig14", real), "a_real", topK, k)
		add(in("Fig14", syn), "b_synthetic", topK, k)
	}
	return t
}

// scaled multiplies a paper-scale cardinality by the row's scale, with the
// floor of 1,000.
func (r sweepRow) scaled(n float64) int {
	return max(1000, int(math.Round(n*r.scale)))
}

// shown is the swept value as the row is run: a cardinality scaled.
func (r sweepRow) shown() float64 {
	if r.param == features || r.param == objects {
		return float64(r.scaled(r.value))
	}
	return r.value
}

// name is the row's sub-benchmark name, e.g. "a_features=10000"; empty at a
// default point.
func (r sweepRow) name() string {
	if r.param == atDefault {
		return ""
	}
	return fmt.Sprintf("%s_%s=%v", r.panel, paramNames[r.param].bench, r.shown())
}

// label is the row's experiment label, e.g. "|F_i| = 100000".
func (r sweepRow) label() string {
	p := paramNames[r.param]
	return fmt.Sprintf("%s = "+p.format, p.cell, r.shown())
}

// key is the fixture the row runs on with the given index kind.
func (r sweepRow) key(kind index.Kind) fixtureKey {
	if r.real {
		return fixtureKey{objects: r.scaled(realHotels), features: r.scaled(realRestaurant), sets: 1,
			real: true, kind: kind, bufferPages: r.pool}
	}
	key := fixtureKey{objects: r.scaled(defObjects), features: r.scaled(defFeatures), sets: defSets,
		vocab: defVocab, clusters: max(200, int(defClusters*r.scale)), kind: kind, bufferPages: r.pool}
	switch r.param {
	case features:
		key.features = r.scaled(r.value)
	case objects:
		key.objects = r.scaled(r.value)
	case sets:
		key.sets = int(r.value)
	case vocab:
		key.vocab = int(r.value)
	}
	return key
}

// queryConfig is the row's query workload: Table 2's defaults with the
// swept query parameter set.
func (r sweepRow) queryConfig() datagen.QueryConfig {
	c := datagen.QueryConfig{K: defK, Radius: defRadius, Lambda: defLambda, NumKeywords: defQKw,
		Variant: core.Variant(r.variant), Seed: 1}
	if r.bench {
		c.Seed = 2
	}
	switch r.param {
	case radius:
		c.Radius = r.value
	case topK:
		c.K = int(r.value)
	case lambda:
		c.Lambda = r.value
	case qkw:
		c.NumKeywords = int(r.value)
	}
	return c
}

// at returns the row run at another scale and workload size.
func (r sweepRow) at(scale float64, queries int) sweepRow {
	r.scale, r.queries = scale, queries
	return r
}

// experimentRows returns the experiment rows of one figure and panel.
func experimentRows(fig, panel string) []sweepRow {
	var out []sweepRow
	for _, r := range sweepTable {
		if !r.bench && r.fig == fig && r.panel == panel {
			out = append(out, r)
		}
	}
	return out
}

// TestSweepTable keeps the table whole: every panel of Table 3 and Figures
// 7–14 has its experiment rows over Table 2's values (the values the
// evaluation has always swept, written out here rather than read from the
// lists above), every benchmark figure has rows, and every row's query is
// one the engine accepts.
func TestSweepTable(t *testing.T) {
	card := []float64{50_000, 100_000, 500_000, 1_000_000}
	c := []float64{2, 3, 4, 5}
	w := []float64{64, 128, 192, 256}
	r := []float64{0.005, 0.01, 0.02, 0.04, 0.08}
	k := []float64{5, 10, 20, 40, 80}
	l := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	n := []float64{1, 3, 5, 7, 9}
	scalability := map[string][]float64{"a": card, "b": card, "c": c, "d": w}
	queryParams := map[string][]float64{"a": r, "b": k, "c": l, "d": n}
	want := map[string]map[string][]float64{
		"Table3": scalability,
		"Fig7":   scalability,
		"Fig8":   queryParams,
		"Fig9":   queryParams,
		"Fig10":  scalability,
		"Fig11":  {"a": k, "b": n},
		"Fig12":  queryParams,
		"Fig13":  {"a": card, "b": card},
		"Fig14":  {"a_real": k, "b_synthetic": k},
	}
	got := map[string]map[string][]float64{}
	benchFigs := map[string]bool{}
	for _, row := range sweepTable {
		if row.bench {
			benchFigs[row.fig] = true
		} else {
			if got[row.fig] == nil {
				got[row.fig] = map[string][]float64{}
			}
			if !slices.Contains(got[row.fig][row.panel], row.value) {
				got[row.fig][row.panel] = append(got[row.fig][row.panel], row.value)
			}
		}
		if row.scale <= 0 || row.queries <= 0 {
			t.Errorf("%s %s: scale %v, %d queries", row.fig, row.label(), row.scale, row.queries)
		}
		cfg := row.queryConfig()
		q := Query{K: cfg.K, Radius: cfg.Radius, Lambda: cfg.Lambda, Variant: row.variant, Algorithm: row.alg}
		if err := ValidateQuery(q, nil); err != nil {
			t.Errorf("%s %s: %v", row.fig, row.label(), err)
		}
	}
	for fig, panels := range want {
		for panel, values := range panels {
			if !slices.Equal(got[fig][panel], values) {
				t.Errorf("%s(%s) sweeps %v, want %v", fig, panel, got[fig][panel], values)
			}
		}
		if len(got[fig]) != len(panels) {
			t.Errorf("%s has panels %v, want %v", fig, mapKeys(got[fig]), mapKeys(panels))
		}
		if !benchFigs[fig] {
			t.Errorf("%s has no benchmark rows", fig)
		}
	}
	if len(got) != len(want) {
		t.Errorf("experiment figures %v, want %v", mapKeys(got), mapKeys(want))
	}
	// A benchmark's names must not collide: `make bench-smoke` and
	// `make bench-compare` select by them.
	seen := map[string]bool{}
	for _, row := range sweepTable {
		name := row.fig + "/" + row.name()
		if row.bench && seen[name] {
			t.Errorf("benchmark %s appears twice", name)
		}
		seen[name] = row.bench
	}
	if row := (sweepRow{fig: "Fig7", panel: "a", param: features, value: 50_000, scale: 0.2}); row.name() != "a_features=10000" {
		t.Errorf("benchmark name %q, want a_features=10000", row.name())
	}
}

// mapKeys returns m's keys sorted.
func mapKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
