package main

import (
	"fmt"

	"stpq/internal/core"
	"stpq/internal/datagen"
	"stpq/internal/index"
)

// sweepValues mirror Table 2 of the paper.
var (
	cardinalities = []int{50_000, 100_000, 500_000, 1_000_000}
	featureCounts = []int{2, 3, 4, 5}
	vocabSizes    = []int{64, 128, 192, 256}
	radii         = []float64{0.005, 0.01, 0.02, 0.04, 0.08}
	ks            = []int{5, 10, 20, 40, 80}
	lambdas       = []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	queriedKws    = []int{1, 3, 5, 7, 9}
)

// defaultQC returns the default query workload configuration.
func (b *bench) defaultQC(variant core.Variant) datagen.QueryConfig {
	return datagen.QueryConfig{
		K: defK, Radius: defRadius, Lambda: defLambda, NumKeywords: defQKw,
		Variant: variant, Seed: b.seed,
	}
}

// scalabilitySweep runs the four dataset sweeps shared by Table 3, Figure
// 7 and Figure 10: |F_i|, |O|, c and indexed keywords, for both index
// kinds. alg is "stds" or "stps".
func (b *bench) scalabilitySweep(title, alg string, variant core.Variant, nq int) {
	header(title)
	qc := b.defaultQC(variant)

	line("vary |F_i|", "SRT (io+cpu=total ms)", "IR2 (io+cpu=total ms)")
	for _, f := range cardinalities {
		ds := b.synthetic(b.scaled(defObjects), b.scaled(f), defSets, defVocab)
		qs := ds.GenQueries(nq, qc)
		label := fmt.Sprintf("  |F_i| = %d", b.scaled(f))
		srt := b.run(label, "SRT", alg, b.engine(dsKeyOf(ds), ds, index.SRT), qs)
		ir2 := b.run(label, "IR2", alg, b.engine(dsKeyOf(ds), ds, index.IR2), qs)
		line(label, cell(srt), cell(ir2))
	}

	line("vary |O|", "SRT", "IR2")
	for _, o := range cardinalities {
		ds := b.synthetic(b.scaled(o), b.scaled(defFeatures), defSets, defVocab)
		qs := ds.GenQueries(nq, qc)
		label := fmt.Sprintf("  |O| = %d", b.scaled(o))
		srt := b.run(label, "SRT", alg, b.engine(dsKeyOf(ds), ds, index.SRT), qs)
		ir2 := b.run(label, "IR2", alg, b.engine(dsKeyOf(ds), ds, index.IR2), qs)
		line(label, cell(srt), cell(ir2))
	}

	line("vary c", "SRT", "IR2")
	for _, c := range featureCounts {
		ds := b.synthetic(b.scaled(defObjects), b.scaled(defFeatures), c, defVocab)
		qs := ds.GenQueries(nq, qc)
		label := fmt.Sprintf("  c = %d", c)
		srt := b.run(label, "SRT", alg, b.engine(dsKeyOf(ds), ds, index.SRT), qs)
		ir2 := b.run(label, "IR2", alg, b.engine(dsKeyOf(ds), ds, index.IR2), qs)
		line(label, cell(srt), cell(ir2))
	}

	line("vary indexed keywords", "SRT", "IR2")
	for _, w := range vocabSizes {
		ds := b.synthetic(b.scaled(defObjects), b.scaled(defFeatures), defSets, w)
		qs := ds.GenQueries(nq, qc)
		label := fmt.Sprintf("  keywords = %d", w)
		srt := b.run(label, "SRT", alg, b.engine(dsKeyOf(ds), ds, index.SRT), qs)
		ir2 := b.run(label, "IR2", alg, b.engine(dsKeyOf(ds), ds, index.IR2), qs)
		line(label, cell(srt), cell(ir2))
	}
}

// queryParamSweep runs the four query-parameter sweeps of Figures 8/9:
// radius, k, λ and queried keywords.
func (b *bench) queryParamSweep(title string, ds *datagen.Dataset, variant core.Variant, withRadius bool) {
	header(title)
	srt := b.engine(dsKeyOf(ds), ds, index.SRT)
	ir2 := b.engine(dsKeyOf(ds), ds, index.IR2)

	if withRadius {
		line("vary r", "SRT (io+cpu=total ms)", "IR2 (io+cpu=total ms)")
		for _, r := range radii {
			qc := b.defaultQC(variant)
			qc.Radius = r
			qs := ds.GenQueries(b.queries, qc)
			label := fmt.Sprintf("  r = %.3f", r)
			line(label, cell(b.run(label, "SRT", "stps", srt, qs)), cell(b.run(label, "IR2", "stps", ir2, qs)))
		}
	}

	line("vary k", "SRT", "IR2")
	for _, k := range ks {
		qc := b.defaultQC(variant)
		qc.K = k
		qs := ds.GenQueries(b.queries, qc)
		label := fmt.Sprintf("  k = %d", k)
		line(label, cell(b.run(label, "SRT", "stps", srt, qs)), cell(b.run(label, "IR2", "stps", ir2, qs)))
	}

	line("vary lambda", "SRT", "IR2")
	for _, l := range lambdas {
		qc := b.defaultQC(variant)
		qc.Lambda = l
		qs := ds.GenQueries(b.queries, qc)
		label := fmt.Sprintf("  lambda = %.1f", l)
		line(label, cell(b.run(label, "SRT", "stps", srt, qs)), cell(b.run(label, "IR2", "stps", ir2, qs)))
	}

	line("vary queried keywords", "SRT", "IR2")
	for _, n := range queriedKws {
		qc := b.defaultQC(variant)
		qc.NumKeywords = n
		qs := ds.GenQueries(b.queries, qc)
		label := fmt.Sprintf("  keywords = %d", n)
		line(label, cell(b.run(label, "SRT", "stps", srt, qs)), cell(b.run(label, "IR2", "stps", ir2, qs)))
	}
}

// table3 reproduces Table 3: STDS execution time on the synthetic dataset
// for both indexing techniques across the four dataset sweeps.
func (b *bench) table3() {
	b.scalabilitySweep(
		fmt.Sprintf("Table 3: STDS execution time, synthetic (avg of %d queries)", b.table3Queries),
		"stds", core.RangeScore, b.table3Queries)
}

// fig7 reproduces Figure 7: STPS scalability on the synthetic dataset.
func (b *bench) fig7() {
	b.scalabilitySweep(
		fmt.Sprintf("Figure 7: STPS scalability, synthetic, range score (avg of %d queries)", b.queries),
		"stps", core.RangeScore, b.queries)
}

// fig8 reproduces Figure 8: query parameters on the real dataset.
func (b *bench) fig8() {
	b.queryParamSweep(
		fmt.Sprintf("Figure 8: STPS query parameters, real dataset, range score (avg of %d queries)", b.queries),
		b.real(), core.RangeScore, true)
}

// fig9 reproduces Figure 9: query parameters on the synthetic dataset.
func (b *bench) fig9() {
	ds := b.synthetic(b.scaled(defObjects), b.scaled(defFeatures), defSets, defVocab)
	b.queryParamSweep(
		fmt.Sprintf("Figure 9: STPS query parameters, synthetic, range score (avg of %d queries)", b.queries),
		ds, core.RangeScore, true)
}

// fig10 reproduces Figure 10: STPS scalability for the influence variant.
// Without Definition 4's validity filter every combination is valid, and
// the geometric bound that discards them at generation cannot discard one
// that holds a feature scoring above the k-th object on its own: from
// c = 3 on that population grows as the (c−1)-th power of the relevant
// feature count, so the c and keyword panels run at one tenth of the
// dataset scale (labeled) and stop at c = 2 — see EXPERIMENTS.md note 1.
func (b *bench) fig10() {
	b.fig10ab()
	b.fig10cd()
}

// fig10ab runs the full-scale |F_i| and |O| panels of Figure 10.
func (b *bench) fig10ab() {
	header(fmt.Sprintf("Figure 10(a,b): STPS scalability, synthetic, influence score (avg of %d queries)", b.queries))
	qc := b.defaultQC(core.InfluenceScore)
	nq := b.queries

	line("vary |F_i|", "SRT (io+cpu=total ms)", "IR2 (io+cpu=total ms)")
	for _, f := range cardinalities {
		ds := b.synthetic(b.scaled(defObjects), b.scaled(f), defSets, defVocab)
		qs := ds.GenQueries(nq, qc)
		label := fmt.Sprintf("  |F_i| = %d", b.scaled(f))
		srt := b.run(label, "SRT", "stps", b.engine(dsKeyOf(ds), ds, index.SRT), qs)
		ir2 := b.run(label, "IR2", "stps", b.engine(dsKeyOf(ds), ds, index.IR2), qs)
		line(label, cell(srt), cell(ir2))
	}

	line("vary |O|", "SRT", "IR2")
	for _, o := range cardinalities {
		ds := b.synthetic(b.scaled(o), b.scaled(defFeatures), defSets, defVocab)
		qs := ds.GenQueries(nq, qc)
		label := fmt.Sprintf("  |O| = %d", b.scaled(o))
		srt := b.run(label, "SRT", "stps", b.engine(dsKeyOf(ds), ds, index.SRT), qs)
		ir2 := b.run(label, "IR2", "stps", b.engine(dsKeyOf(ds), ds, index.IR2), qs)
		line(label, cell(srt), cell(ir2))
	}

}

// fig10cd runs the reduced-scale c and indexed-keyword panels of Figure
// 10 (see the tractability note).
func (b *bench) fig10cd() {
	header(fmt.Sprintf("Figure 10(c,d): influence score, reduced scale (avg of %d queries)", b.queries))
	qc := b.defaultQC(core.InfluenceScore)
	nq := b.queries
	tenth := func(n int) int {
		v := n / 10
		if v < 1000 {
			v = 1000
		}
		return v
	}
	small := nq
	if small > 2 {
		small = 2
	}
	line("vary c (1/10 scale, c=2 measured)", "SRT", "IR2")
	for _, c := range featureCounts {
		if c > 2 {
			line(fmt.Sprintf("  c = %d", c), "omitted: seconds per query; each strong feature",
				"is a candidate with |relevant|^(c-1) others (EXPERIMENTS.md note 1)")
			continue
		}
		ds := b.synthetic(tenth(b.scaled(defObjects)), tenth(b.scaled(defFeatures)), c, defVocab)
		qs := ds.GenQueries(small, qc)
		label := fmt.Sprintf("  c = %d", c)
		srt := b.run(label, "SRT", "stps", b.engine(dsKeyOf(ds), ds, index.SRT), qs)
		ir2 := b.run(label, "IR2", "stps", b.engine(dsKeyOf(ds), ds, index.IR2), qs)
		line(label, cell(srt), cell(ir2))
	}

	line("vary indexed keywords (1/10 scale)", "SRT", "IR2")
	for _, w := range vocabSizes {
		ds := b.synthetic(tenth(b.scaled(defObjects)), tenth(b.scaled(defFeatures)), defSets, w)
		qs := ds.GenQueries(nq, qc)
		label := fmt.Sprintf("  keywords = %d", w)
		srt := b.run(label, "SRT", "stps", b.engine(dsKeyOf(ds), ds, index.SRT), qs)
		ir2 := b.run(label, "IR2", "stps", b.engine(dsKeyOf(ds), ds, index.IR2), qs)
		line(label, cell(srt), cell(ir2))
	}
}

// fig11 reproduces Figure 11: influence variant on the real dataset,
// varying k and the number of queried keywords.
func (b *bench) fig11() {
	header(fmt.Sprintf("Figure 11: STPS influence score, real dataset (avg of %d queries)", b.queries))
	ds := b.real()
	srt := b.engine(dsKeyOf(ds), ds, index.SRT)
	ir2 := b.engine(dsKeyOf(ds), ds, index.IR2)
	line("vary k", "SRT (io+cpu=total ms)", "IR2 (io+cpu=total ms)")
	for _, k := range ks {
		qc := b.defaultQC(core.InfluenceScore)
		qc.K = k
		qs := ds.GenQueries(b.queries, qc)
		label := fmt.Sprintf("  k = %d", k)
		line(label, cell(b.run(label, "SRT", "stps", srt, qs)), cell(b.run(label, "IR2", "stps", ir2, qs)))
	}
	line("vary queried keywords", "SRT", "IR2")
	for _, n := range queriedKws {
		qc := b.defaultQC(core.InfluenceScore)
		qc.NumKeywords = n
		qs := ds.GenQueries(b.queries, qc)
		label := fmt.Sprintf("  keywords = %d", n)
		line(label, cell(b.run(label, "SRT", "stps", srt, qs)), cell(b.run(label, "IR2", "stps", ir2, qs)))
	}
}

// fig12 reproduces Figure 12: influence variant on the synthetic dataset,
// varying query parameters.
func (b *bench) fig12() {
	ds := b.synthetic(b.scaled(defObjects), b.scaled(defFeatures), defSets, defVocab)
	b.queryParamSweep(
		fmt.Sprintf("Figure 12: STPS query parameters, synthetic, influence score (avg of %d queries)", b.queries),
		ds, core.InfluenceScore, true)
}

// fig13 reproduces Figure 13: the NN variant's scalability with the
// Voronoi construction cost isolated (the striped bars). Like fig14 it runs
// every NN query on a fresh engine (bench.run), so each builds its cells.
func (b *bench) fig13() {
	b.fig13a()
	b.fig13b()
}

// fig13a is the |F_i| panel of Figure 13.
func (b *bench) fig13a() {
	nq := b.queries
	if nq > 2 {
		nq = 2 // NN queries model seconds of I/O each: the cells' page reads
	}
	header(fmt.Sprintf("Figure 13(a): STPS nearest-neighbor score, synthetic (avg of %d queries)", nq))
	qc := b.defaultQC(core.NearestNeighborScore)
	line("vary |F_i|", "SRT total ms", "IR2 total ms")
	for _, f := range cardinalities {
		ds := b.synthetic(b.scaled(defObjects), b.scaled(f), defSets, defVocab)
		qs := ds.GenQueries(nq, qc)
		label := fmt.Sprintf("  |F_i| = %d", b.scaled(f))
		srt := b.run(label, "SRT", "stps", b.engine(dsKeyOf(ds), ds, index.SRT), qs)
		ir2 := b.run(label, "IR2", "stps", b.engine(dsKeyOf(ds), ds, index.IR2), qs)
		line(label, b.vorCell(srt), b.vorCell(ir2))
	}
}

// fig13b is the |O| panel of Figure 13.
func (b *bench) fig13b() {
	nq := b.queries
	if nq > 2 {
		nq = 2
	}
	header(fmt.Sprintf("Figure 13(b): STPS nearest-neighbor score, synthetic (avg of %d queries)", nq))
	qc := b.defaultQC(core.NearestNeighborScore)
	line("vary |O|", "SRT", "IR2")
	for _, o := range cardinalities {
		ds := b.synthetic(b.scaled(o), b.scaled(defFeatures), defSets, defVocab)
		qs := ds.GenQueries(nq, qc)
		label := fmt.Sprintf("  |O| = %d", b.scaled(o))
		srt := b.run(label, "SRT", "stps", b.engine(dsKeyOf(ds), ds, index.SRT), qs)
		ir2 := b.run(label, "IR2", "stps", b.engine(dsKeyOf(ds), ds, index.IR2), qs)
		line(label, b.vorCell(srt), b.vorCell(ir2))
	}
}

// fig14 reproduces Figure 14: the NN variant while varying k, on the real
// and synthetic datasets.
func (b *bench) fig14() {
	nq := b.queries
	if nq > 2 {
		nq = 2
	}
	header(fmt.Sprintf("Figure 14: STPS nearest-neighbor score, vary k (avg of %d queries)", nq))
	real := b.real()
	syn := b.synthetic(b.scaled(defObjects), b.scaled(defFeatures), defSets, defVocab)
	line("(a) real dataset", "SRT total ms", "IR2 total ms")
	for _, k := range ks {
		qc := b.defaultQC(core.NearestNeighborScore)
		qc.K = k
		qs := real.GenQueries(nq, qc)
		label := fmt.Sprintf("  k = %d", k)
		srt := b.run(label+" (real)", "SRT", "stps", b.engine(dsKeyOf(real), real, index.SRT), qs)
		ir2 := b.run(label+" (real)", "IR2", "stps", b.engine(dsKeyOf(real), real, index.IR2), qs)
		line(label, b.vorCell(srt), b.vorCell(ir2))
	}
	line("(b) synthetic dataset", "SRT", "IR2")
	for _, k := range ks {
		qc := b.defaultQC(core.NearestNeighborScore)
		qc.K = k
		qs := syn.GenQueries(nq, qc)
		label := fmt.Sprintf("  k = %d", k)
		srt := b.run(label+" (synthetic)", "SRT", "stps", b.engine(dsKeyOf(syn), syn, index.SRT), qs)
		ir2 := b.run(label+" (synthetic)", "IR2", "stps", b.engine(dsKeyOf(syn), syn, index.IR2), qs)
		line(label, b.vorCell(srt), b.vorCell(ir2))
	}
}
