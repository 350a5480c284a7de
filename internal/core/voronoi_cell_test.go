package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/rtree"
	"stpq/internal/voronoi"
)

// nodeHeapCell is the walk voronoiCell was before it became a sweep, over
// the same location layers, kept as the reference for its page reads: a
// heap of nodes only, nearest first, and a popped leaf's features clipped
// where they lie, in stored order. Clipping at once shrinks the reach
// before the next node is considered, so this walk never reads more than
// the sweep does; the sweep is held to reading no more than it.
func nodeHeapCell(e *Engine, siteID int64, site geo.Point) (geo.Polygon, error) {
	b := voronoi.NewCellBuilder(site, geo.UnitSquare())
	var layers []*rtree.Tree
	var h []sweepRef
	for pi, part := range e.features[0].Parts() {
		t, err := part.Locations()
		if err != nil {
			return geo.Polygon{}, err
		}
		layers = append(layers, t)
		if part.Len() > 0 {
			heapPush(&h, sweepRef{page: t.Root(), part: int32(pi)}, sweepBefore)
		}
	}
	for len(h) > 0 {
		it := heapPop(&h, sweepBefore)
		if it.dist2 >= b.Reach2() {
			break
		}
		v, err := layers[it.part].View(it.page)
		if err != nil {
			return geo.Polygon{}, err
		}
		for i := 0; i < v.Len(); i++ {
			if v.Leaf() {
				if v.Visible(i) && v.ItemID(i) != siteID {
					b.Clip(v.Point(i))
				}
			} else if d2 := v.Rect(i).MinDist2(site); d2 < b.Reach2() {
				heapPush(&h, sweepRef{dist2: d2, page: v.Child(i), part: it.part}, sweepBefore)
			}
		}
	}
	return b.Cell(), nil
}

// cellWorld builds an engine over one feature set of 400 features dealt
// round-robin into nparts index parts and returns the features a query
// sees. With exclude, every seventh feature of part 0 is hidden behind
// WithExclude, as a tombstone of live ingest would hide it.
func cellWorld(t *testing.T, rng *rand.Rand, kind index.Kind, nparts int, exclude bool) (*Engine, []index.Feature) {
	t.Helper()
	const vocabW = 8
	opts := index.Options{Kind: kind, VocabWidth: vocabW, PageSize: 1024}
	oidx, err := index.BuildObjectIndex([]index.Object{{ID: 0, Location: randPoint(rng)}}, index.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	feats := make([][]index.Feature, nparts)
	var live []index.Feature
	dead := map[int64]struct{}{}
	for i := 0; i < 400; i++ {
		kw := kwset.NewSet(vocabW)
		kw.Add(rng.Intn(vocabW))
		f := index.Feature{ID: int64(i), Location: randPoint(rng), Score: rng.Float64(), Keywords: kw}
		feats[i%nparts] = append(feats[i%nparts], f)
		if exclude && i%nparts == 0 && (i/nparts)%7 == 0 {
			dead[f.ID] = struct{}{}
		} else {
			live = append(live, f)
		}
	}
	parts := make([]*index.FeatureIndex, nparts)
	for i := range parts {
		if parts[i], err = index.BuildFeatureIndex(feats[i], opts); err != nil {
			t.Fatal(err)
		}
	}
	parts[0] = parts[0].WithExclude(dead, len(dead))
	g, err := index.NewFeatureGroup(parts...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineOverParts([]*index.ObjectIndex{oidx}, 0, []*index.FeatureGroup{g}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng, live
}

// The cell voronoiCell's sweep builds from the location layers' heap of
// nodes and features is the Voronoi cell of the site within the whole group
// — its area is that of the cell clipped by the brute-force
// distance-sorted neighbours, it contains the site, and the site is the
// nearest feature of every point in it — and building it reads no more
// pages than the node-heap walk, which clips eagerly, does on these worlds.
func TestVoronoiCellFromNodeHeap(t *testing.T) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		for _, nparts := range []int{1, 3} {
			for _, exclude := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/parts=%d/exclude=%v", kind, nparts, exclude), func(t *testing.T) {
					rng := rand.New(rand.NewSource(701))
					eng, live := cellWorld(t, rng, kind, nparts, exclude)
					e := eng.session()
					defer eng.releaseSession(e)
					for trial := 0; trial < 200; trial++ {
						site := live[rng.Intn(len(live))]
						before := e.snapshotReads()
						got, err := e.voronoiCell(0, site.ID, site.Location)
						if err != nil {
							t.Fatal(err)
						}
						reads := e.snapshotReads().Sub(before).LogicalReads
						before = e.snapshotReads()
						if _, err := nodeHeapCell(e, site.ID, site.Location); err != nil {
							t.Fatal(err)
						}
						if eager := e.snapshotReads().Sub(before).LogicalReads; reads > eager {
							t.Fatalf("site %d: %d logical reads, the node-heap walk %d", site.ID, reads, eager)
						}

						var others []geo.Point
						for _, f := range live {
							if f.ID != site.ID {
								others = append(others, f.Location)
							}
						}
						sort.Slice(others, func(i, j int) bool {
							return others[i].Dist2(site.Location) < others[j].Dist2(site.Location)
						})
						next := 0
						want := voronoi.ComputeCell(site.Location, geo.UnitSquare(), func() (geo.Point, bool) {
							if next == len(others) {
								return geo.Point{}, false
							}
							next++
							return others[next-1], true
						})
						if math.Abs(got.Area()-want.Area()) > 1e-9 {
							t.Fatalf("site %d: cell area %v, brute force %v", site.ID, got.Area(), want.Area())
						}
						if !got.Contains(site.Location) {
							t.Fatalf("site %d at %v is outside its cell %v", site.ID, site.Location, got.Vertices)
						}
						box := got.Bounds()
						for s := 0; s < 20; s++ {
							p := geo.Point{
								X: box.Min.X + rng.Float64()*(box.Max.X-box.Min.X),
								Y: box.Min.Y + rng.Float64()*(box.Max.Y-box.Min.Y),
							}
							if !got.Contains(p) {
								continue
							}
							// others[0] need not be p's nearest; scan them all.
							for _, o := range others {
								if p.Dist(o) < p.Dist(site.Location)-1e-9 {
									t.Fatalf("site %d: %v is in the cell but nearer to the feature at %v", site.ID, p, o)
								}
							}
						}
					}
				})
			}
		}
	}
}
