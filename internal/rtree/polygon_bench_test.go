package rtree_test

import (
	"math/rand"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/rtree"
)

// BenchmarkSearchPolygon times the NN variant's object retrieval on its
// own: SearchPolygon over a 2 K-object tree, once per search for each of
// the Voronoi cells of 200 random sites — regions of about ten objects, the
// size the nn workload searches. The pool holds every page, so no search
// misses. It reports nanoseconds per search and the points tested per
// search: the leaf slots of the pages the search reads, each of which
// meets the containment box or Contains.
func BenchmarkSearchPolygon(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	objects := make([]index.Object, 2000)
	for i := range objects {
		objects[i] = index.Object{ID: int64(i), Location: geo.Point{X: rng.Float64(), Y: rng.Float64()}}
	}
	idx, err := index.BuildObjectIndex(objects, index.Options{BufferPages: 1 << 10})
	if err != nil {
		b.Fatal(err)
	}
	tr := idx.Tree()
	sites := make([]geo.Point, 200)
	for i := range sites {
		sites[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	cells := make([]geo.Polygon, len(sites))
	tested, found := 0, 0
	for i, s := range sites {
		cell := geo.UnitSquare()
		for j, o := range sites {
			if j != i {
				cell = cell.Clip(geo.Bisector(s, o))
			}
		}
		cells[i] = cell
		// The points a search tests: every leaf slot under a node whose MBR
		// meets the cell, counted by the same pruning through SearchFiltered.
		if err := tr.SearchFiltered(func(r geo.Rect, leaf bool) bool {
			if leaf {
				tested++
				return false
			}
			return cell.IntersectsRect(r)
		}, func(rtree.Entry) bool { return true }); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, cell := range cells {
			if err := tr.SearchPolygon(cell, func(rtree.Entry) bool { found++; return true }); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cells)), "ns/search")
	b.ReportMetric(float64(tested)/float64(len(cells)), "points/search")
	if found != b.N*len(objects) {
		b.Fatalf("found %d objects in %d passes over a partition of %d", found, b.N, len(objects))
	}
}
