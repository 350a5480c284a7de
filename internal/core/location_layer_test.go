package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/voronoi"
)

// treeWalkCell is voronoiCell as it was before the location layer, kept as
// the reference for its cells: a heap of nodes only, over each part's
// feature tree, that clips a popped leaf's features where they lie. The
// walk records every feature it clips; the cell it returns is then cut
// again from the unit square by those within the final reach, nearest
// first (ties by x, then y), which is the order the sweep clips in.
func treeWalkCell(e *Engine, set int, siteID int64, site geo.Point) (geo.Polygon, error) {
	g := e.features[set]
	b := voronoi.NewCellBuilder(site, geo.UnitSquare())
	var h []sweepRef
	var clipped []sweepRef
	for pi, part := range g.Parts() {
		if part.Len() > 0 {
			heapPush(&h, sweepRef{page: part.Tree().Root(), part: int32(pi)}, sweepBefore)
		}
	}
	for len(h) > 0 {
		it := heapPop(&h, sweepBefore)
		if it.dist2 >= b.Reach2() {
			break
		}
		v, err := g.Part(int(it.part)).Tree().View(it.page)
		if err != nil {
			return geo.Polygon{}, err
		}
		for i := 0; i < v.Len(); i++ {
			if v.Leaf() {
				if p := v.Point(i); v.Visible(i) && v.ItemID(i) != siteID && p.Dist2(site) < b.Reach2() {
					clipped = append(clipped, sweepRef{dist2: p.Dist2(site), p: p, point: true})
					b.Clip(p)
				}
			} else if d2 := v.Rect(i).MinDist2(site); d2 < b.Reach2() {
				heapPush(&h, sweepRef{dist2: d2, page: v.Child(i), part: it.part}, sweepBefore)
			}
		}
	}
	reach2 := b.Reach2()
	sort.Slice(clipped, func(i, j int) bool { return sweepBefore(&clipped[i], &clipped[j]) })
	b.Reset(site, geo.UnitSquare())
	for _, c := range clipped {
		if c.dist2 < reach2 {
			b.Clip(c.p)
		}
	}
	return b.Cell(), nil
}

// assertLayerCells holds the cell of every site the engine's set 0 builds
// from its location layers to the feature-tree walk's, bit for bit.
func assertLayerCells(t *testing.T, e *Engine, sites []index.Feature) {
	t.Helper()
	for _, site := range sites {
		got, err := e.voronoiCell(0, site.ID, site.Location)
		if err != nil {
			t.Fatal(err)
		}
		want, err := treeWalkCell(e, 0, site.ID, site.Location)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Vertices) != len(want.Vertices) {
			t.Fatalf("site %d: %d vertices, the tree walk %d", site.ID, len(got.Vertices), len(want.Vertices))
		}
		for i, v := range got.Vertices {
			w := want.Vertices[i]
			if math.Float64bits(v.X) != math.Float64bits(w.X) || math.Float64bits(v.Y) != math.Float64bits(w.Y) {
				t.Fatalf("site %d vertex %d: %v, the tree walk %v", site.ID, i, v, w)
			}
		}
	}
}

// engineOver is an engine whose one feature set is the given parts.
func engineOver(t *testing.T, parts ...*index.FeatureIndex) *Engine {
	t.Helper()
	oidx, err := index.BuildObjectIndex([]index.Object{{ID: 0, Location: geo.Point{X: 0.5, Y: 0.5}}}, index.Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	g, err := index.NewFeatureGroup(parts...)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineOverParts([]*index.ObjectIndex{oidx}, 0, []*index.FeatureGroup{g}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// The cell voronoiCell builds from the location layers is the cell the
// feature trees give, bit for bit, over both kinds, one and three parts,
// with and without tombstones — and again through the write path's
// lifecycle: pending writes as a tombstoned base plus a delta part, a
// partial merge's clone (which must not see the base's layer), and a part
// saved and opened again.
func TestVoronoiCellLayerMatchesTreeWalk(t *testing.T) {
	for _, kind := range []index.Kind{index.SRT, index.IR2} {
		for _, nparts := range []int{1, 3} {
			for _, exclude := range []bool{false, true} {
				t.Run(fmt.Sprintf("%v/parts=%d/exclude=%v", kind, nparts, exclude), func(t *testing.T) {
					eng, live := cellWorld(t, rand.New(rand.NewSource(702)), kind, nparts, exclude)
					assertLayerCells(t, eng, live)
				})
			}
			// On a lattice most neighbours tie in distance with others, so
			// only the tie-break orders their clips.
			t.Run(fmt.Sprintf("%v/parts=%d/lattice", kind, nparts), func(t *testing.T) {
				opts := index.Options{Kind: kind, VocabWidth: 8, PageSize: 1024}
				rng := rand.New(rand.NewSource(706))
				feats := make([][]index.Feature, nparts)
				var all []index.Feature
				for i := 0; i < 400; i++ {
					kw := kwset.NewSet(8)
					kw.Add(rng.Intn(8))
					f := index.Feature{ID: int64(i), Location: geo.Point{X: 0.025 + 0.05*float64(i%20), Y: 0.025 + 0.05*float64(i/20)}, Score: rng.Float64(), Keywords: kw}
					p := rng.Intn(nparts)
					feats[p] = append(feats[p], f)
					all = append(all, f)
				}
				parts := make([]*index.FeatureIndex, nparts)
				for i := range parts {
					var err error
					if parts[i], err = index.BuildFeatureIndex(feats[i], opts); err != nil {
						t.Fatal(err)
					}
				}
				assertLayerCells(t, engineOver(t, parts...), all)
			})
		}
		t.Run(fmt.Sprintf("%v/lifecycle", kind), func(t *testing.T) {
			rng := rand.New(rand.NewSource(703))
			const vocabW = 8
			opts := index.Options{Kind: kind, VocabWidth: vocabW, PageSize: 1024}
			feature := func(id int64) index.Feature {
				kw := kwset.NewSet(vocabW)
				kw.Add(rng.Intn(vocabW))
				return index.Feature{ID: id, Location: randPoint(rng), Score: rng.Float64(), Keywords: kw}
			}
			feats := make([]index.Feature, 400)
			for i := range feats {
				feats[i] = feature(int64(i))
			}
			base, err := index.BuildFeatureIndex(feats, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertLayerCells(t, engineOver(t, base), feats)
			if n := base.LocationBuilds(); n != 1 {
				t.Fatalf("the base built its layer %d times", n)
			}

			// Apply: every fifth feature is deleted or moved (a tombstone
			// in the base, its new version in the delta), and 40 are new.
			dead := map[int64]struct{}{}
			var ups, live []index.Feature
			for _, f := range feats {
				switch {
				case f.ID%10 == 0:
					dead[f.ID] = struct{}{}
				case f.ID%10 == 5:
					dead[f.ID] = struct{}{}
					ups = append(ups, feature(f.ID))
				default:
					live = append(live, f)
				}
			}
			for i := 0; i < 40; i++ {
				ups = append(ups, feature(int64(1000+i)))
			}
			live = append(live, ups...)
			delta, err := index.BuildFeatureIndex(ups, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertLayerCells(t, engineOver(t, base.WithExclude(dead, len(dead)), delta), live)
			if n := base.LocationBuilds(); n != 1 {
				t.Fatalf("a tombstoned view built the base's layer again (%d builds)", n)
			}

			// A partial merge writes the same net changes into a clone.
			clone, err := base.BeginMerge()
			if err != nil {
				t.Fatal(err)
			}
			if n := clone.LocationBuilds(); n != 0 {
				t.Fatalf("a merge clone starts with %d layer builds", n)
			}
			for _, f := range feats {
				if _, ok := dead[f.ID]; ok {
					if found, err := clone.Delete(f.ID, f.Location); err != nil || !found {
						t.Fatalf("delete %d: found %v, %v", f.ID, found, err)
					}
				}
			}
			for _, f := range ups {
				if err := clone.Insert(f); err != nil {
					t.Fatal(err)
				}
			}
			assertLayerCells(t, engineOver(t, clone), live)

			// Save and Open: the layer is not saved; the opened part
			// builds its own.
			var buf bytes.Buffer
			meta, err := clone.Save(&buf)
			if err != nil {
				t.Fatal(err)
			}
			opened, err := index.OpenFeatureIndex(&buf, meta, 0)
			if err != nil {
				t.Fatal(err)
			}
			assertLayerCells(t, engineOver(t, opened), live)
		})
	}
}

// Concurrent first NN queries on one part build its location layer once,
// and every one of them answers as brute force does.
func TestConcurrentFirstNNBuildsOneLayer(t *testing.T) {
	w := buildWorld(t, 704, 300, 200, 2, 16, index.SRT, Options{})
	rng := rand.New(rand.NewSource(705))
	qs := make([]Query, 8)
	for i := range qs {
		qs[i] = w.randQuery(rng, 2, NearestNeighborScore)
	}
	got := make([][]Result, len(qs))
	errs := make([]error, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _, errs[i] = w.engine.STPS(qs[i])
		}(i)
	}
	wg.Wait()
	for i, q := range qs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		assertMatchesBruteForce(t, w, q, got[i], fmt.Sprintf("concurrent first NN %d", i))
	}
	for i, g := range w.engine.FeatureGroups() {
		if n := g.Part(0).LocationBuilds(); n != 1 {
			t.Errorf("feature set %d: %d layer builds, want 1", i, n)
		}
	}
}
