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
// every inner page by the query keywords' levels (NextInner), each slot
// it meets priced from its price points (BoundLevels), so the cost of
// reading the levels and probing the pairs and tokens per slot shows.
// /inner-wide scans the inner pages of a tree of 300 keywords, wider than
// MaxLevelWidth, whose keywords share table buckets, the same way. The
// views are taken before the timer
// starts, so no page read is timed; each reports nanoseconds per slot
// scanned.
func BenchmarkPageScan(b *testing.B) {
	leaves, inner := scanTree(b, 128)
	q := index.QueryKeywords{Set: kwset.SetFromWords(128, 3, 40, 97), Lambda: 0.5}
	b.Run("leaf", func(b *testing.B) { scanPages(b, leaves, &q) })
	b.Run("inner", func(b *testing.B) { scanPages(b, inner, &q) })
	_, wide := scanTree(b, 300)
	qw := index.QueryKeywords{Set: kwset.SetFromWords(300, 3, 40, 270), Lambda: 0.5}
	b.Run("inner-wide", func(b *testing.B) { scanPages(b, wide, &qw) })
}

// scanTree bulk-loads 50 K features of one to three keywords each, below
// width, into an SRT tree and returns views of its leaf and inner pages.
func scanTree(b *testing.B, width int) (leaves, inner []rtree.PageView) {
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
	return pageViews(b, idx.Tree())
}

// scanPages scans and prices every slot of views as the feature stream
// does (core's featureStream.expand), b.N times, and reports nanoseconds
// per slot.
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
			leaf, n := v.Leaf(), v.Len()
			var inter, count int
			for i := 0; ; i++ {
				if leaf {
					i, inter, count = v.NextCounted(i, words)
				} else {
					i = v.NextInner(i, &levels)
				}
				if i == n {
					break
				}
				if !v.Visible(i) {
					continue
				}
				if leaf {
					sink += q.BoundCounts(v.Score(i), true, inter, count, wc)
				} else {
					sink += q.BoundLevels(levels.Front(), wc)
				}
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
