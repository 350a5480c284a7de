package core

import (
	"fmt"
	"math/rand"
	"testing"

	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/storage"
)

// goldenReads pins the paper's cost metric: per-query logical reads,
// physical reads and evictions ("L/P/E", three queries per cell) on
// 32-page pools (each tree here has 50 to 110 pages, so the pools evict),
// recorded by running this test at commit 7026029, the parent of the
// change that moved decoded nodes into the buffer-pool frames. A decoded form lives and dies with its frame
// and every Tree.Node call still counts one logical read, so these counts
// must not move: a change here means the cache altered which accesses the
// pool sees.
//
// The two stps/influence rows were re-recorded when influenceBound became
// the pairwise bound (from 309/116/30 154/107/103 334/136/133 and
// 341/148/61 164/127/124 336/136/133): exact for two features where the
// nearest-feature bound was its square root, it skips object probes the old
// bound let through, so a component may only have moved down — every one is
// at or below its old value, and the feature-side reads are the same.
//
// The two stps/nearest-neighbor rows were re-recorded when voronoiCell began
// to queue nodes only and to clip a popped leaf's features where they lie
// (from 5715/2447/2351 4470/1902/1902 7108/2992/2992 and 3105/1013/917
// 2468/743/743 3807/1189/1189). Nodes still pop in MINDIST order, but a
// feature of a popped leaf is clipped at once instead of waiting in the heap
// for its own distance, so the reach 2·maxDist is never larger when the next
// node is considered and fewer nodes are below it; and a cell's walk is
// seeded with each part's root page, not with a RootEntry that reads the
// root once more to aggregate it (one logical read per cell built, always a
// hit). Every component is at or below its old value; the stds rows, whose
// computeNNScore keeps the feature-ordered walk, did not move.
//
// They were re-recorded again when NN combinations became eager under the
// cells rule and each cell was kept in a store per engine (from
// 5254/2413/2317 4109/1867/1867 6526/2953/2953 and 2652/984/888
// 2109/724/724 3240/1147/1147). The first query of a row reads up to 0.6 %
// more: eager generation builds the cell of every concrete feature it pulls,
// including the last few whose combinations the lazy walk never reached.
// The second and third read less, because the three queries share one
// engine and find the cells the earlier ones built in its store.
//
// The four stps/range and stps/nearest-neighbor rows were re-recorded when
// those variants began to tell the combination stream their k-th score, as
// the influence variant does (from 71/69/3 95/50/36 106/91/89, 136/134/60
// 140/130/124 124/114/112, 5278/2429/2333 3664/1663/1663 5348/2434/2434 and
// 2667/989/893 1886/649/649 2695/954/954). Once nothing queued or unseen
// reaches that score the stream stops pulling, where it used to pull on to
// the combination that ended the loop. Every component is at or below its
// old value, and the stds and stps/influence rows did not move.
//
// Every row was re-recorded when the three best-first searches that seeded
// their heaps with a RootEntry — the feature stream, topKInfluence and
// groupAscendDistance — began to seed each non-empty part's root page at a
// bound that needs no read (+Inf, the combination's score, 0 on −MINDIST),
// as voronoiCell already did: a RootEntry read the root to aggregate it and
// the pop read it again, a hit. Only L moved, and only down; P and E are
// the same in every row. Before → after, L only:
//
//	SRT/stds/range             1816 1647 2195 → 1720 1572 2101
//	SRT/stds/influence         50196 39766 64272 → 46365 37203 60272
//	SRT/stds/nearest-neighbor  33907 27541 30094 → 30788 24998 27325
//	SRT/stps/range             71 84 98 → 69 82 96
//	SRT/stps/influence         246 154 238 → 222 146 217
//	SRT/stps/nearest-neighbor  5278 3638 5348 → 5276 3636 5346
//	IR2/stds/range             1764 1157 1545 → 1668 1082 1451
//	IR2/stds/influence         40264 28918 48720 → 36433 26355 44720
//	IR2/stds/nearest-neighbor  15663 12778 13872 → 12544 10235 11103
//	IR2/stps/range             136 138 124 → 134 136 122
//	IR2/stps/influence         278 164 240 → 254 156 219
//	IR2/stps/nearest-neighbor  2667 1874 2695 → 2665 1872 2693
//
// Seven rows were re-recorded when two layouts changed at once. The SRT
// bulk load took MinHash(t.W) as its keyword coordinate in place of the
// top 16 bits of H(t.W), so its leaves group features that share keywords;
// and voronoiCell began to sweep each part's location layer — ids and points
// only, in 2-D Hilbert order, built at the part's first cell walk by a read
// no query is charged for — instead of the feature tree, on both kinds. The IR²
// rows other than stps/nearest-neighbor did not move. Before → after, L/P/E:
//
//	SRT/stds/range             1720/358/262 1572/309/309 2101/511/511 → 1365/129/36 1302/168/165 2184/644/644
//	SRT/stds/influence         46365/359/263 37203/384/384 60272/944/944 → 38615/206/113 32345/191/188 68096/1819/1819
//	SRT/stds/nearest-neighbor  30788/236/140 24998/211/211 27325/212/212 → 38898/250/154 31608/221/221 34455/220/220
//	SRT/stps/range             69/69/3 82/39/30 96/66/59 → 55/55/0 67/36/19 83/49/39
//	SRT/stps/influence         222/115/30 146/107/103 217/136/133 → 199/92/23 118/77/57 212/127/124
//	SRT/stps/nearest-neighbor  5276/2429/2333 3636/1651/1651 5346/2434/2434 → 2354/425/268 1614/266/263 2334/394/394
//	IR2/stps/nearest-neighbor  2665/989/893 1872/647/647 2693/954/954 → 2381/452/292 1645/301/301 2337/398/398
//
// SRT stds/nearest-neighbor rises by about 26 % on every query: its
// computeNNScore walks the feature tree nearest first (it needs each
// feature's score and keywords), and a tree that clusters by keyword keeps
// less of a neighbourhood in one leaf. The third stds/range and
// stds/influence queries rise for the same reason. Every STPS row falls.
//
// Every row was re-recorded when every inner slot of a feature tree began
// to carry a 512-bit signature of the keyword pairs that occur together in
// one feature below it, and the feature stream to cap a slot's count of
// query keywords by it (rtree.PageView.PairCap). The signature grows an
// inner slot of these 24-keyword trees from 52 to 116 bytes, so a 1 KiB
// inner page holds 8 slots instead of 19 and every walk that does not
// prune on keywords reads more: both stds/nearest-neighbor rows, whose
// computeNNScore walks the feature tree nearest first, rise by 1.4–4.4 %.
// The cap prunes what the narrower pages cost elsewhere, most on the third
// queries (SRT/stds/range 2184 → 1985, IR2/stps/range 122 → 72); the first
// stds/range queries and some stps/influence ones rise. Before → after,
// L/P/E:
//
//	SRT/stds/range             1365/129/36 1302/168/165 2184/644/644 → 1428/134/38 1364/238/238 1985/494/494
//	SRT/stds/influence         38615/206/113 32345/191/188 68096/1819/1819 → 39733/220/124 33336/267/267 59791/1004/1004
//	SRT/stds/nearest-neighbor  38898/250/154 31608/221/221 34455/220/220 → 40609/289/193 33072/254/254 35990/258/258
//	SRT/stps/range             55/55/0 67/36/19 83/49/39 → 58/58/0 67/33/17 55/23/15
//	SRT/stps/influence         199/92/23 118/77/57 212/127/124 → 199/92/20 124/76/59 218/135/132
//	SRT/stps/nearest-neighbor  2354/425/268 1614/266/263 2334/394/394 → 2362/433/273 1622/282/282 2342/404/404
//	IR2/stds/range             1668/247/151 1082/179/179 1451/206/206 → 1748/285/189 1154/197/197 1516/235/235
//	IR2/stds/influence         36433/222/126 26355/218/218 44720/270/270 → 36055/237/141 25574/228/228 34835/246/246
//	IR2/stds/nearest-neighbor  12544/204/108 10235/182/182 11103/183/183 → 12753/217/121 10379/193/193 11368/196/196
//	IR2/stps/range             134/134/60 136/128/122 122/113/111 → 132/132/58 135/128/122 72/65/63
//	IR2/stps/influence         254/147/61 156/127/124 219/136/133 → 262/155/69 164/137/134 227/145/142
//	IR2/stps/nearest-neighbor  2381/452/292 1645/301/301 2337/398/398 → 2389/460/300 1653/311/311 2345/407/407
//
// The two stps/range rows were re-recorded when the range stream took its
// partner order: τ prices an entry with the best partner within 2r in each
// other set instead of that set's best anywhere, and each step takes the
// entry attaining τ (DESIGN.md §4, "Partner-aware range threshold"). Every
// component falls; the stds, influence and nearest-neighbor rows did not
// move. Before → after, L/P/E:
//
//	SRT/stps/range             58/58/0 67/33/17 55/23/15 → 57/57/0 49/18/2 32/8/1
//	IR2/stps/range             132/132/58 135/128/122 72/65/63 → 114/114/40 102/91/85 35/25/23
//
// Ten rows were re-recorded when every inner slot of a feature tree took,
// in place of e.s and e.W, the best score of a feature below holding each
// keyword as a 4-bit level, and the feature stream began to price a slot
// by the levels of the query keywords it holds and the counts their pairs
// allow (rtree.PageView.NextLevels). At these 24-keyword trees the table
// takes the 16 bytes the score and the keyword word took, so no page
// changed its fan-out and the walks that do not price by keyword — both
// stds/nearest-neighbor rows — did not move. A slot whose best score and
// whose most query keywords came from different features is priced
// lower, so most components fall; two rise, where the partner order,
// seeing different prices, steps through other pages: the third
// SRT/stps/range query's P (8 → 12) and the third IR2/stps/range query's L
// (35 → 41). Before → after, L/P/E:
//
//	SRT/stds/range             1428/134/38 1364/238/238 1985/494/494 → 1243/120/24 1273/193/193 1792/340/340
//	SRT/stds/influence         39733/220/124 33336/267/267 59791/1004/1004 → 36166/179/83 31822/231/231 55149/619/619
//	SRT/stps/range             57/57/0 49/18/2 32/8/1 → 42/42/0 40/18/0 31/12/0
//	SRT/stps/influence         199/92/20 124/76/59 218/135/132 → 190/83/13 108/61/42 199/108/105
//	SRT/stps/nearest-neighbor  2362/433/273 1622/282/282 2342/404/404 → 2362/433/273 1622/277/277 2339/396/396
//	IR2/stds/range             1748/285/189 1154/197/197 1516/235/235 → 1385/223/127 1010/183/183 1370/211/211
//	IR2/stds/influence         36055/237/141 25574/228/228 34835/246/246 → 28498/225/129 21294/214/214 31079/227/227
//	IR2/stps/range             114/114/40 102/91/85 35/25/23 → 63/63/0 58/34/17 41/18/16
//	IR2/stps/influence         262/155/69 164/137/134 227/145/142 → 240/133/47 144/107/104 217/127/124
//	IR2/stps/nearest-neighbor  2389/460/300 1653/311/311 2345/407/407 → 2389/460/300 1653/302/302 2342/400/400
//
// Ten rows were re-recorded when the pair signature took three bits a key
// and a singleton token for each keyword that is some feature's only one
// (rtree.PairSig), and a price point of one query keyword whose
// token no slot keyword has began to price a feature of two keywords
// (index.Similarity.NodeBound). Neither changed a page's fan-out, so both
// stds/nearest-neighbor rows, which do not price by keyword, did not move;
// every component of every other row falls or stays but two, where a
// stream steps through other pages at the new prices: the third
// SRT/stps/range query's P (12 → 13) and the second
// IR2/stps/nearest-neighbor query's P and E (302 → 304). Before → after,
// L/P/E:
//
//	SRT/stds/range             1243/120/24 1273/193/193 1792/340/340 → 1190/119/23 1087/155/155 1610/283/283
//	SRT/stds/influence         36166/179/83 31822/231/231 55149/619/619 → 34660/172/76 28455/191/191 51548/414/414
//	SRT/stps/range             42/42/0 40/18/0 31/12/0 → 34/34/0 34/17/0 29/13/0
//	SRT/stps/influence         190/83/13 108/61/42 199/108/105 → 188/81/13 94/54/34 197/96/92
//	SRT/stps/nearest-neighbor  2362/433/273 1622/277/277 2339/396/396 → 2362/433/273 1622/274/274 2334/390/390
//	IR2/stds/range             1385/223/127 1010/183/183 1370/211/211 → 1265/194/98 879/166/166 1257/196/196
//	IR2/stds/influence         28498/225/129 21294/214/214 31079/227/227 → 26049/212/116 18382/194/194 29574/216/216
//	IR2/stps/range             63/63/0 58/34/17 41/18/16 → 44/44/0 37/17/0 34/13/1
//	IR2/stps/influence         240/133/47 144/107/104 217/127/124 → 230/123/38 117/72/68 214/119/116
//	IR2/stps/nearest-neighbor  2389/460/300 1653/302/302 2342/400/400 → 2388/459/299 1653/304/304 2339/396/396
//
// No row moved when the inner-slot layout stopped being chosen by
// rtree.Config switches and became the one rtree derives from the keyword
// width: these trees were already built in it.
var goldenReads = map[string]string{
	"SRT/stds/range":            "1190/119/23 1087/155/155 1610/283/283",
	"SRT/stds/influence":        "34660/172/76 28455/191/191 51548/414/414",
	"SRT/stds/nearest-neighbor": "40609/289/193 33072/254/254 35990/258/258",
	"SRT/stps/range":            "34/34/0 34/17/0 29/13/0",
	"SRT/stps/influence":        "188/81/13 94/54/34 197/96/92",
	"SRT/stps/nearest-neighbor": "2362/433/273 1622/274/274 2334/390/390",
	"IR2/stds/range":            "1265/194/98 879/166/166 1257/196/196",
	"IR2/stds/influence":        "26049/212/116 18382/194/194 29574/216/216",
	"IR2/stds/nearest-neighbor": "12753/217/121 10379/193/193 11368/196/196",
	"IR2/stps/range":            "44/44/0 37/17/0 34/13/1",
	"IR2/stps/influence":        "230/123/38 117/72/68 214/119/116",
	"IR2/stps/nearest-neighbor": "2388/459/299 1653/304/304 2339/396/396",
}

func TestReadCountsGolden(t *testing.T) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		for _, alg := range []string{"stds", "stps"} {
			for _, variant := range []Variant{RangeScore, InfluenceScore, NearestNeighborScore} {
				name := kind.String() + "/" + alg + "/" + variant.String()
				t.Run(name, func(t *testing.T) {
					got, _ := readCounts(t, kind, alg, variant)
					if want := goldenReads[name]; got != want {
						t.Fatalf("per-query L/P/E = %q, want %q", got, want)
					}
				})
			}
		}
	}
}

// The feature streams count the pages they expand, by level: on the golden
// world's range queries some, and never more than the query read.
func TestFeatureExpansionsWithinReads(t *testing.T) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		for _, alg := range []string{"stds", "stps"} {
			_, stats := readCounts(t, kind, alg, RangeScore)
			for i, st := range stats {
				exp := int64(st.LeafExpansions + st.InternalExpansions)
				if st.LeafExpansions == 0 || st.InternalExpansions == 0 || exp > st.LogicalReads {
					t.Errorf("%v/%s query %d: %d leaf + %d internal expansions, %d logical reads",
						kind, alg, i, st.LeafExpansions, st.InternalExpansions, st.LogicalReads)
				}
			}
		}
	}
}

// goldenWorld builds the fixed world whose indexes sit behind 32-page
// pools, and returns it with the generator the queries are drawn from and
// the sum of its pools' counters.
func goldenWorld(tb testing.TB, kind index.Kind) (*testWorld, *rand.Rand, func() storage.Stats) {
	const vocabW = 24
	return pooledWorld(tb, kind, vocabW, func(rng *rand.Rand) int { return rng.Intn(vocabW) })
}

// pooledWorld builds a world of 2,000 objects and two sets of 1,600
// features, each with one to three keywords drawn by draw, over
// vocabW keywords, whose indexes sit behind 32-page pools of 1 KiB pages.
func pooledWorld(tb testing.TB, kind index.Kind, vocabW int, draw func(*rand.Rand) int) (*testWorld, *rand.Rand, func() storage.Stats) {
	tb.Helper()
	rng := rand.New(rand.NewSource(4242))
	opts := index.Options{Kind: kind, VocabWidth: vocabW, PageSize: 1024, BufferPages: 32}
	objs := make([]index.Object, 2000)
	for i := range objs {
		objs[i] = index.Object{ID: int64(i), Location: randPoint(rng)}
	}
	oidx, err := index.BuildObjectIndex(objs, opts)
	if err != nil {
		tb.Fatal(err)
	}
	fidxs := make([]*index.FeatureIndex, 2)
	for s := range fidxs {
		feats := make([]index.Feature, 1600)
		for i := range feats {
			kw := kwset.NewSet(vocabW)
			for j := 0; j < 1+rng.Intn(3); j++ {
				kw.Add(draw(rng))
			}
			feats[i] = index.Feature{ID: int64(i), Location: randPoint(rng), Score: rng.Float64(), Keywords: kw}
		}
		if fidxs[s], err = index.BuildFeatureIndex(feats, opts); err != nil {
			tb.Fatal(err)
		}
	}
	eng, err := NewEngine(oidx, fidxs, Options{BatchSTDS: true})
	if err != nil {
		tb.Fatal(err)
	}
	pools := func() storage.Stats {
		s := oidx.Stats()
		for _, f := range fidxs {
			s.Add(f.Stats())
		}
		return s
	}
	return &testWorld{engine: eng, vocabW: vocabW}, rng, pools
}

// readCounts runs three fixed queries on the golden world and renders each
// one's page counts; it also returns each query's Stats.
func readCounts(t *testing.T, kind index.Kind, alg string, variant Variant) (string, []Stats) {
	t.Helper()
	w, rng, pools := goldenWorld(t, kind)
	qs := make([]Query, 3)
	for i := range qs {
		qs[i] = w.randQuery(rng, 2, variant)
	}
	out, stats, _ := runCounted(t, w, pools, alg, qs)
	return out, stats
}

// runCounted runs the queries in order on w and renders each one's page
// counts, L/P/E, from the pools; it also returns each query's Stats and
// answer.
func runCounted(t *testing.T, w *testWorld, pools func() storage.Stats, alg string, qs []Query) (string, []Stats, [][]Result) {
	t.Helper()
	eng := w.engine
	out, stats, answers := "", make([]Stats, len(qs)), make([][]Result, len(qs))
	for i, q := range qs {
		before := pools()
		var st Stats
		var err error
		if alg == "stds" {
			answers[i], st, err = eng.STDS(q)
		} else {
			answers[i], st, err = eng.STPS(q)
		}
		if err != nil {
			t.Fatal(err)
		}
		stats[i] = st
		d := pools().Sub(before)
		if d.LogicalReads != st.LogicalReads || d.PhysicalReads != st.PhysicalReads {
			t.Fatalf("query stats %d/%d disagree with the pools' %d/%d",
				st.LogicalReads, st.PhysicalReads, d.LogicalReads, d.PhysicalReads)
		}
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%d/%d/%d", d.LogicalReads, d.PhysicalReads, d.Evictions)
	}
	return out, stats, answers
}

// wideReads pins the reads and answers of STPS on a world of 300 keywords,
// wider than rtree.MaxLevelWidth, so that every inner slot of its feature
// trees keeps e.s and e.W beside its pair signature and the feature stream
// prices it by e.s and the count its pairs and tokens allow; the golden
// world's 24-keyword trees keep score tables instead. Each row is the
// three queries' L/P/E, then each one's answer ids in rank order.
var wideReads = map[string]string{
	"SRT/stps/range":     "49/49/0 31/19/8 45/26/13 | 606 1655 1785 | 1336 | 897 996",
	"SRT/stps/influence": "274/175/80 161/121/120 329/175/175 | 1827 498 1276 | 182 | 1343 972",
	"IR2/stps/range":     "83/83/16 41/32/29 80/56/53 | 606 1655 1785 | 1336 | 897 996",
	"IR2/stps/influence": "363/264/169 221/181/180 353/213/213 | 1827 498 1276 | 182 | 1343 972",
}

func TestWideReadCountsGolden(t *testing.T) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		for _, variant := range []Variant{RangeScore, InfluenceScore} {
			name := kind.String() + "/stps/" + variant.String()
			t.Run(name, func(t *testing.T) {
				w, rng, pools := pooledWorld(t, kind, wideVocab, wideKeyword)
				qs := make([]Query, 3)
				for i := range qs {
					qs[i] = wideQuery(rng, variant)
				}
				got, _, answers := runCounted(t, w, pools, "stps", qs)
				for _, ans := range answers {
					got += " |"
					for _, r := range ans {
						got += fmt.Sprintf(" %d", r.ID)
					}
				}
				if want := wideReads[name]; got != want {
					t.Errorf("per-query L/P/E and answers = %q, want %q", got, want)
				}
				for i, q := range qs {
					assertMatchesBruteForce(t, w, q, answers[i], name)
				}
			})
		}
	}
}

// wideVocab is the wide world's keyword width.
const wideVocab = 300

// wideKeyword draws a keyword of the wide world: one of the 16 first ids
// two times in three, so that features share keywords and hold them in
// pairs, and any id otherwise.
func wideKeyword(rng *rand.Rand) int {
	if rng.Intn(3) == 0 {
		return rng.Intn(wideVocab)
	}
	return rng.Intn(16)
}

// wideQuery draws a two-set query of the wide world, its keywords as
// wideKeyword draws a feature's.
func wideQuery(rng *rand.Rand, variant Variant) Query {
	kws := make([]kwset.Set, 2)
	for i := range kws {
		kws[i] = kwset.NewSet(wideVocab)
		for j := 0; j < 1+rng.Intn(3); j++ {
			kws[i].Add(wideKeyword(rng))
		}
	}
	return Query{
		K:        1 + rng.Intn(12),
		Radius:   0.05 + rng.Float64()*0.15,
		Lambda:   rng.Float64(),
		Keywords: kws,
		Variant:  variant,
	}
}

// BenchmarkVoronoiCellCold builds one Voronoi cell at a time, as cellOf does
// on a miss in an empty store, in the golden world on both kinds. The
// location layer is built before the clock starts and sits behind a 32-page
// pool; the sites cycle through the feature set in its stored order.
func BenchmarkVoronoiCellCold(b *testing.B) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		b.Run(kind.String(), func(b *testing.B) {
			w, _, _ := goldenWorld(b, kind)
			sites, err := w.engine.features[0].All()
			if err != nil {
				b.Fatal(err)
			}
			e := w.engine.session()
			defer w.engine.releaseSession(e)
			if _, err := e.voronoiCell(0, sites[0].ItemID, sites[0].Point()); err != nil {
				b.Fatal(err)
			}
			before := e.snapshotReads()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				site := &sites[i%len(sites)]
				if _, err := e.voronoiCell(0, site.ItemID, site.Point()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			d := e.snapshotReads().Sub(before)
			b.ReportMetric(float64(d.LogicalReads)/float64(b.N), "reads/op")
			b.ReportMetric(float64(d.PhysicalReads)/float64(b.N), "misses/op")
		})
	}
}
