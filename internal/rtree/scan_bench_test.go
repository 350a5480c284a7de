package rtree_test

import (
	"math/rand"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/rtree"
)

// BenchmarkPageScan times the feature stream's per-page kernel on its own:
// the counted keyword scan over every leaf of a 50 K-feature SRT tree of
// 128 keywords, and the price of each slot it returns, for a 3-keyword
// query. The views are taken before the timer starts, so no page read is
// timed; it reports nanoseconds per slot scanned.
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
	leaves, slots := leafViews(b, idx.Tree()), 0
	for i := range leaves {
		slots += leaves[i].Len()
	}
	q := index.QueryKeywords{Set: kwset.SetFromWords(width, 3, 40, 97), Lambda: 0.5}
	words, wc := q.Set.WordsBits(), q.Set.Count()
	var sink float64
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for k := range leaves {
			v := &leaves[k]
			for i, inter, count := v.NextCounted(0, words); i < v.Len(); i, inter, count = v.NextCounted(i+1, words) {
				if v.Visible(i) {
					sink += q.BoundCounts(v.Score(i), true, inter, count, wc)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slots), "ns/slot")
	if sink == 0 {
		b.Fatal("no slot met the query")
	}
}

// leafViews returns a view of every leaf page of tr.
func leafViews(b *testing.B, tr *rtree.Tree) []rtree.PageView {
	root, err := tr.View(tr.Root())
	if err != nil {
		b.Fatal(err)
	}
	var leaves []rtree.PageView
	for level := []rtree.PageView{root}; len(level) > 0; {
		var next []rtree.PageView
		for k := range level {
			v := &level[k]
			if v.Leaf() {
				leaves = append(leaves, *v)
				continue
			}
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
	return leaves
}
