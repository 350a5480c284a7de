package rtree_test

import (
	"math/rand"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/rtree"
)

// BenchmarkPageScan times the feature stream's per-page kernel on its own,
// over a 50 K-feature SRT tree of 128 keywords with score tables and pair
// signatures with tokens, for a 3-keyword query: /leaf is the counted keyword scan over
// every leaf and the price of each slot it returns; /inner is the scan of
// every inner page by the query keywords' levels (NextLevels), each slot
// it meets priced from its price points (BoundLevels), so the cost of
// reading the levels and probing the pairs and tokens per slot shows. The views are
// taken before the timer starts, so no page read is timed; each reports
// nanoseconds per slot scanned.
func BenchmarkPageScan(b *testing.B) {
	const width = 128
	rng := rand.New(rand.NewSource(1))
	features := make([]index.Feature, 50_000)
	for i := range features {
		kw := kwset.NewSet(width)
		for j := 0; j < 1+rng.Intn(3); j++ {
			kw.Add(rng.Intn(width))
		}
		features[i] = index.Feature{ID: int64(i), Location: geo.Point{X: rng.Float64(), Y: rng.Float64()}, Score: rng.Float64(), Keywords: kw}
	}
	idx, err := index.BuildFeatureIndex(features, index.Options{Kind: index.SRT, VocabWidth: width, BufferPages: 1 << 14})
	if err != nil {
		b.Fatal(err)
	}
	leaves, inner := pageViews(b, idx.Tree())
	q := index.QueryKeywords{Set: kwset.SetFromWords(width, 3, 40, 97), Lambda: 0.5}
	b.Run("leaf", func(b *testing.B) { scanPages(b, leaves, &q) })
	b.Run("inner", func(b *testing.B) { scanPages(b, inner, &q) })
}

// scanPages scans and prices every slot of views as the feature stream
// does, b.N times, and reports nanoseconds per slot.
func scanPages(b *testing.B, views []rtree.PageView, q *index.QueryKeywords) {
	words, wc := q.Set.WordsBits(), q.Set.Count()
	var levels rtree.LevelQuery
	levels.Reset(words)
	slots := 0
	for i := range views {
		slots += views[i].Len()
	}
	var sink float64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for k := range views {
			v := &views[k]
			leaf := v.Leaf()
			if v.Levelled() {
				for i := v.NextLevels(0, &levels); i < v.Len(); i = v.NextLevels(i+1, &levels) {
					sink += q.BoundLevels(levels.Front(), wc)
				}
				continue
			}
			for i, inter, count := v.NextCounted(0, words); i < v.Len(); i, inter, count = v.NextCounted(i+1, words) {
				if !v.Visible(i) {
					continue
				}
				if !leaf {
					c, least := v.PairCap(i, &levels, inter)
					sink += q.BoundNode(v.Score(i), c, least, wc)
					continue
				}
				sink += q.BoundCounts(v.Score(i), leaf, inter, count, wc)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slots), "ns/slot")
	if sink == 0 {
		b.Fatal("no slot met the query")
	}
}

// pageViews returns a view of every leaf page of tr, and of every inner
// page.
func pageViews(b *testing.B, tr *rtree.Tree) (leaves, inner []rtree.PageView) {
	root, err := tr.View(tr.Root())
	if err != nil {
		b.Fatal(err)
	}
	for level := []rtree.PageView{root}; len(level) > 0; {
		var next []rtree.PageView
		for k := range level {
			v := &level[k]
			if v.Leaf() {
				leaves = append(leaves, *v)
				continue
			}
			inner = append(inner, *v)
			for i := 0; i < v.Len(); i++ {
				c, err := tr.View(v.Child(i))
				if err != nil {
					b.Fatal(err)
				}
				next = append(next, c)
			}
		}
		level = next
	}
	return leaves, inner
}
