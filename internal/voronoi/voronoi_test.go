package voronoi

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"stpq/internal/geo"
)

// buildCellBrute constructs the cell by clipping against every site.
func buildCellBrute(site geo.Point, sites []geo.Point) geo.Polygon {
	cell := geo.UnitSquare()
	for _, s := range sites {
		if s != site {
			cell = cell.Clip(geo.Bisector(site, s))
		}
	}
	return cell
}

// sortedStream yields sites in increasing distance from the site.
func sortedStream(site geo.Point, sites []geo.Point) func() (geo.Point, bool) {
	sorted := make([]geo.Point, 0, len(sites))
	for _, s := range sites {
		if s != site {
			sorted = append(sorted, s)
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		return sorted[i].Dist2(site) < sorted[j].Dist2(site)
	})
	i := 0
	return func() (geo.Point, bool) {
		if i >= len(sorted) {
			return geo.Point{}, false
		}
		p := sorted[i]
		i++
		return p, true
	}
}

// The incremental construction with the 2·maxDist stopping rule must yield
// the same cell (same membership) as clipping against every site.
func TestComputeCellMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(60)
		sites := make([]geo.Point, n)
		for i := range sites {
			sites[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
		}
		site := sites[rng.Intn(n)]
		fast := ComputeCell(site, geo.UnitSquare(), sortedStream(site, sites))
		brute := buildCellBrute(site, sites)
		// Compare membership on random probes (vertex lists may differ by
		// collinear points).
		for i := 0; i < 100; i++ {
			p := geo.Point{X: rng.Float64(), Y: rng.Float64()}
			a, b := fast.Contains(p), brute.Contains(p)
			if a != b {
				// Tolerate boundary jitter.
				if nearEdge(fast, p) || nearEdge(brute, p) {
					continue
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func nearEdge(pg geo.Polygon, p geo.Point) bool {
	n := len(pg.Vertices)
	for i := 0; i < n; i++ {
		a, b := pg.Vertices[i], pg.Vertices[(i+1)%n]
		h := geo.EdgeHalfPlane(a, b)
		v := h.Eval(p)
		if v < 1e-6 && v > -1e-6 {
			return true
		}
	}
	return false
}

// Every point inside the computed cell must have the site as its nearest
// site — the defining property the NN query variant relies on.
func TestCellNearestNeighborProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(40)
		sites := make([]geo.Point, n)
		for i := range sites {
			sites[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
		}
		site := sites[0]
		cell := ComputeCell(site, geo.UnitSquare(), sortedStream(site, sites))
		for i := 0; i < 200; i++ {
			p := geo.Point{X: rng.Float64(), Y: rng.Float64()}
			if !cell.Contains(p) {
				continue
			}
			dSite := p.Dist2(site)
			for _, s := range sites[1:] {
				if p.Dist2(s) < dSite-1e-9 {
					t.Fatalf("trial %d: point %v in cell of %v but closer to %v", trial, p, site, s)
				}
			}
		}
	}
}

// The stopping rule must consume only a prefix of the stream: with many
// far-away sites, most are never visited.
func TestStoppingRuleConsumesPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	site := geo.Point{X: 0.5, Y: 0.5}
	var sites []geo.Point
	// Dense ring close to the site.
	for i := 0; i < 20; i++ {
		sites = append(sites, geo.Point{
			X: 0.5 + 0.02*rng.NormFloat64(),
			Y: 0.5 + 0.02*rng.NormFloat64(),
		})
	}
	// Far corner cloud.
	for i := 0; i < 1000; i++ {
		sites = append(sites, geo.Point{X: 0.9 + 0.1*rng.Float64(), Y: 0.9 + 0.1*rng.Float64()})
	}
	consumed := 0
	stream := sortedStream(site, sites)
	counting := func() (geo.Point, bool) {
		p, ok := stream()
		if ok {
			consumed++
		}
		return p, ok
	}
	cell := ComputeCell(site, geo.UnitSquare(), counting)
	if cell.IsEmpty() {
		t.Fatal("cell must not be empty")
	}
	if consumed > 100 {
		t.Errorf("stopping rule consumed %d of %d sites", consumed, len(sites))
	}
}

func TestCellBuilderBasics(t *testing.T) {
	site := geo.Point{X: 0.25, Y: 0.5}
	b := NewCellBuilder(site, geo.UnitSquare())
	if b.Clips() != 0 {
		t.Error("fresh builder must have zero clips")
	}
	b.Clip(site) // self-clip is a no-op
	if b.Clips() != 0 {
		t.Error("self clip must not count")
	}
	b.Clip(geo.Point{X: 0.75, Y: 0.5})
	if b.Clips() != 1 {
		t.Error("clip count")
	}
	cell := b.Cell()
	if !cell.Contains(site) {
		t.Error("cell must contain its site")
	}
	if cell.Contains(geo.Point{X: 0.9, Y: 0.5}) {
		t.Error("cell must exclude the far half")
	}
	// Done: the farthest cell vertex is at distance ~sqrt(0.25²+0.5²).
	if b.Done(0.1) {
		t.Error("near neighbor cannot be done")
	}
	if !b.Done(10) {
		t.Error("far neighbor must be done")
	}
}

func TestComputeCellEmptyStream(t *testing.T) {
	site := geo.Point{X: 0.5, Y: 0.5}
	cell := ComputeCell(site, geo.UnitSquare(), func() (geo.Point, bool) {
		return geo.Point{}, false
	})
	if cell.Area() < 0.99 {
		t.Error("cell with no neighbors must be the whole bound")
	}
}

// Two sites: the intersection of their cells must be (nearly) empty, and
// their union must cover the square.
func TestTwoSitesPartition(t *testing.T) {
	a := geo.Point{X: 0.3, Y: 0.4}
	b := geo.Point{X: 0.7, Y: 0.6}
	cellA := ComputeCell(a, geo.UnitSquare(), sortedStream(a, []geo.Point{a, b}))
	cellB := ComputeCell(b, geo.UnitSquare(), sortedStream(b, []geo.Point{a, b}))
	inter := cellA.IntersectConvex(cellB)
	if inter.Area() > 1e-9 {
		t.Errorf("cells overlap with area %v", inter.Area())
	}
	if got := cellA.Area() + cellB.Area(); got < 1-1e-9 || got > 1+1e-9 {
		t.Errorf("cells do not partition the square: total %v", got)
	}
}

// randomSites draws n sites; the first is the one whose cell is built.
func randomSites(rng *rand.Rand, n int) []geo.Point {
	sites := make([]geo.Point, n)
	for i := range sites {
		sites[i] = geo.Point{X: rng.Float64(), Y: rng.Float64()}
	}
	return sites
}

// The per-neighbor rule needs no order: a builder fed every neighbor,
// shuffled, ends with the cell the distance-sorted sweep gives — the same
// area, and a vertex for every vertex — while passing over (not clipping
// by) the neighbors beyond its reach.
func TestShuffledNeighborsGiveTheSortedCell(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 100; trial++ {
		sites := randomSites(rng, 10+rng.Intn(200))
		site := sites[0]
		want := ComputeCell(site, geo.UnitSquare(), sortedStream(site, sites))
		b := NewCellBuilder(site, geo.UnitSquare())
		for _, i := range rng.Perm(len(sites)) {
			b.Clip(sites[i])
		}
		got := b.Cell()
		if d := got.Area() - want.Area(); d > 1e-12 || d < -1e-12 {
			t.Fatalf("trial %d: shuffled area %v, sorted %v", trial, got.Area(), want.Area())
		}
		for _, v := range want.Vertices {
			if !got.Contains(v) && !nearEdge(got, v) {
				t.Fatalf("trial %d: vertex %v of the sorted cell is outside the shuffled one", trial, v)
			}
		}
		if len(sites) > 100 && b.Clips() >= len(sites)-1 {
			t.Errorf("trial %d: %d clips for %d neighbors: none was passed over", trial, b.Clips(), len(sites)-1)
		}
	}
}

// A builder that is Reset builds the cell a fresh one does, vertex for
// vertex — nothing of the previous site is left in its buffers — and the
// polygon Cell handed out before is a copy the next cell does not write to.
func TestBuilderReuseNeitherLeaksNorAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reused := NewCellBuilder(geo.Point{}, geo.UnitSquare())
	var kept, keptCopy geo.Polygon
	for trial := 0; trial < 50; trial++ {
		sites := randomSites(rng, 5+rng.Intn(60))
		fresh := NewCellBuilder(sites[0], geo.UnitSquare())
		reused.Reset(sites[0], geo.UnitSquare())
		for _, s := range sites[1:] {
			fresh.Clip(s)
			reused.Clip(s)
		}
		got, want := reused.Cell(), fresh.Cell()
		if len(got.Vertices) != len(want.Vertices) || reused.Clips() != fresh.Clips() {
			t.Fatalf("trial %d: reused builder %d vertices, %d clips; fresh %d, %d",
				trial, len(got.Vertices), reused.Clips(), len(want.Vertices), fresh.Clips())
		}
		for i := range want.Vertices {
			if got.Vertices[i] != want.Vertices[i] {
				t.Fatalf("trial %d: vertex %d is %v, a fresh builder's %v", trial, i, got.Vertices[i], want.Vertices[i])
			}
		}
		for i := range kept.Vertices {
			if kept.Vertices[i] != keptCopy.Vertices[i] {
				t.Fatalf("trial %d: building the next cell moved vertex %d of the previous one", trial, i)
			}
		}
		kept = got
		keptCopy = geo.Polygon{Vertices: append([]geo.Point(nil), got.Vertices...)}
	}
}
