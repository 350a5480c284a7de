package main

// approx.go benchmarks the MinHash/LSH approximate fast tier against exact
// execution: the same random workload runs once in exact mode (the oracle)
// and once per recall setting in approx mode, and each approx pass reports
// its measured recall@k — the mean fraction of the exact top-k the approx
// answer recovers — next to its latency. The index is IR² with an 8-bit
// signature file (sig8), where exact execution pays a verification record
// read per surviving candidate; skip-verify approx settings (recall ≤ 0.95)
// answer from the MinHash estimate instead, eliminating those reads. Only
// signature indexes accept approx queries: on exact bitmaps there are no
// reads to skip.
//
// Like the cluster sweep, records always land in BENCH_approx.json.

import (
	"fmt"
	"log"
	"math/rand"

	"stpq"
	"stpq/internal/core"
	"stpq/internal/datagen"
)

// approxBenchFile is where the approx comparison always saves its records.
const approxBenchFile = "BENCH_approx.json"

// approxRecalls is the swept recall-target knob. 0.99 keeps verification
// (ParamsForRecall.SkipVerify turns off above 0.95); the rest skip it.
var approxRecalls = []float64{0.5, 0.75, 0.9, 0.95, 0.99}

func (b *bench) approxExp() {
	header("approx: MinHash/LSH fast tier vs exact, recall@k per setting (IR2)")
	ds := b.synthetic(b.scaled(defObjects), b.scaled(defFeatures), defSets, defVocab)

	// Small buffer pool so the verification reads stay physical: the record
	// file is much larger than 64 pages.
	const name = "sig8"
	db, setNames := b.approxDB(ds, stpq.Config{IndexKind: stpq.IR2, SignatureBits: 8, PageSize: 1024, BufferPages: 64})
	qs := b.approxQueries(setNames, b.queries)

	// Exact pass: the oracle top-k per query, and the baseline cost row.
	oracle := make([][]int64, len(qs))
	exactPer := make([]core.Stats, len(qs))
	for i, q := range qs {
		res, st, err := db.TopK(q)
		if err != nil {
			log.Fatal(err)
		}
		ids := make([]int64, len(res))
		for j, r := range res {
			ids[j] = r.ID
		}
		oracle[i] = ids
		exactPer[i] = st
	}
	exactRec := newRecord("approx", fmt.Sprintf("  %s exact", name), "IR2", "stps", nil, exactPer)
	recs := []Record{exactRec}
	line(fmt.Sprintf("  %s exact", name),
		fmt.Sprintf("mean %8.2fms  p99 %8.2fms", exactRec.TotalMS.Mean, exactRec.TotalMS.P99))

	for _, recall := range approxRecalls {
		per := make([]core.Stats, len(qs))
		var recallSum float64
		var cands, pruned, skipped int64
		for i, q := range qs {
			q.Mode = stpq.ModeApprox
			q.Recall = recall
			res, st, err := db.TopK(q)
			if err != nil {
				log.Fatal(err)
			}
			recallSum += recallAtK(oracle[i], res)
			per[i] = st
			cands += st.ApproxCandidates
			pruned += st.ApproxPruned
			skipped += st.ApproxSkippedReads
		}
		meanRecall := recallSum / float64(len(qs))
		label := fmt.Sprintf("  %s approx r=%.2f", name, recall)
		rec := newRecord("approx", label, "IR2", "stps", nil, per)
		rec.Counters = map[string]int64{
			"recall_target_milli": int64(recall * 1000),
			"recall_at_k_milli":   int64(meanRecall * 1000),
			"candidates":          cands,
			"pruned":              pruned,
			"skipped_reads":       skipped,
		}
		recs = append(recs, rec)
		speedup := 0.0
		if rec.TotalMS.Mean > 0 {
			speedup = exactRec.TotalMS.Mean / rec.TotalMS.Mean
		}
		line(label, fmt.Sprintf(
			"recall@k %.3f  mean %8.2fms (%.1fx)  pruned %d/%d  skipped reads %d",
			meanRecall, rec.TotalMS.Mean, speedup, pruned, cands, skipped))
	}

	if err := writeRecords(approxBenchFile, recs); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %d approx records to %s", len(recs), approxBenchFile)
	if b.jsonPath != "" {
		b.records = append(b.records, recs...)
	}
}

// approxDB builds a public DB over the synthetic dataset with the given
// config (the public path is deliberate: the sweep exercises Mode/Recall
// exactly as library callers do).
func (b *bench) approxDB(ds *datagen.Dataset, cfg stpq.Config) (*stpq.DB, []string) {
	db := stpq.New(cfg)
	objs := make([]stpq.Object, len(ds.Objects))
	for i, o := range ds.Objects {
		objs[i] = stpq.Object{ID: o.ID, X: o.Location.X, Y: o.Location.Y}
	}
	db.AddObjects(objs)
	setNames := make([]string, len(ds.FeatureSets))
	for i, fs := range ds.FeatureSets {
		feats := make([]stpq.Feature, len(fs))
		for j, f := range fs {
			var kws []string
			f.Keywords.ForEach(func(id int) { kws = append(kws, fmt.Sprintf("kw%d", id)) })
			feats[j] = stpq.Feature{ID: f.ID, X: f.Location.X, Y: f.Location.Y,
				Score: f.Score, Keywords: kws}
		}
		setNames[i] = fmt.Sprintf("set%d", i+1)
		db.AddFeatureSet(setNames[i], feats)
	}
	if err := db.Build(); err != nil {
		log.Fatal(err)
	}
	return db, setNames
}

// approxQueries builds the fixed random workload shared by every pass.
func (b *bench) approxQueries(setNames []string, n int) []stpq.Query {
	rng := rand.New(rand.NewSource(b.seed))
	qs := make([]stpq.Query, n)
	for i := range qs {
		kw := make(map[string][]string, len(setNames))
		for _, name := range setNames {
			words := make([]string, defQKw)
			for j := range words {
				words[j] = fmt.Sprintf("kw%d", rng.Intn(defVocab))
			}
			kw[name] = words
		}
		qs[i] = stpq.Query{K: defK, Radius: defRadius, Lambda: defLambda, Keywords: kw}
	}
	return qs
}

// recallAtK is |approx top-k ∩ exact top-k| / |exact top-k| for one query
// (1 when the exact answer is empty: there was nothing to recover).
func recallAtK(oracle []int64, approx []stpq.Result) float64 {
	if len(oracle) == 0 {
		return 1
	}
	want := make(map[int64]bool, len(oracle))
	for _, id := range oracle {
		want[id] = true
	}
	hit := 0
	for _, r := range approx {
		if want[r.ID] {
			hit++
		}
	}
	return float64(hit) / float64(len(oracle))
}
