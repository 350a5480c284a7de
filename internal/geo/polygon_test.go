package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBisectorContains(t *testing.T) {
	a, b := Point{0.2, 0.5}, Point{0.8, 0.5}
	h := Bisector(a, b)
	if !h.Contains(a) {
		t.Error("bisector must contain its own site")
	}
	if h.Contains(Point{0.9, 0.5}) {
		t.Error("bisector must exclude points closer to b")
	}
	// Midpoint is on the boundary (inclusive).
	if !h.Contains(a.Mid(b)) {
		t.Error("midpoint should be boundary-inclusive")
	}
}

// Property: q is in Bisector(a,b) iff dist(q,a) ≤ dist(q,b) (up to eps).
func TestBisectorDefinitionProperty(t *testing.T) {
	f := func(ax, ay, bx, by, qx, qy float64) bool {
		a := Point{clamp01(ax), clamp01(ay)}
		b := Point{clamp01(bx), clamp01(by)}
		q := Point{clamp01(qx), clamp01(qy)}
		if a == b {
			return true
		}
		in := Bisector(a, b).Contains(q)
		closer := q.Dist2(a) <= q.Dist2(b)+1e-9
		if in && !closer {
			return false
		}
		farther := q.Dist2(a) >= q.Dist2(b)-1e-9
		if !in && !farther {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestClipUnitSquare(t *testing.T) {
	sq := UnitSquare()
	// Clip with the half-plane x ≤ 0.5.
	h := HalfPlane{A: 1, B: 0, C: 0.5}
	half := sq.Clip(h)
	if half.IsEmpty() {
		t.Fatal("clip should not be empty")
	}
	if got := half.Area(); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("clipped area = %v, want 0.5", got)
	}
	if !half.Contains(Point{0.25, 0.5}) || half.Contains(Point{0.75, 0.5}) {
		t.Error("wrong side kept after clip")
	}
}

func TestClipToEmpty(t *testing.T) {
	sq := UnitSquare()
	// x ≤ −1 excludes the whole square.
	h := HalfPlane{A: 1, B: 0, C: -1}
	if got := sq.Clip(h); !got.IsEmpty() {
		t.Errorf("expected empty polygon, got %v vertices", len(got.Vertices))
	}
	// Clipping an empty polygon stays empty.
	if got := (Polygon{}).Clip(h); !got.IsEmpty() {
		t.Error("clip of empty polygon must remain empty")
	}
}

func TestRepeatedClipsShrinkArea(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pg := UnitSquare()
	site := Point{0.5, 0.5}
	prev := pg.Area()
	for i := 0; i < 50; i++ {
		other := Point{rng.Float64(), rng.Float64()}
		if other == site {
			continue
		}
		pg = pg.Clip(Bisector(site, other))
		a := pg.Area()
		if a > prev+1e-9 {
			t.Fatalf("area grew after clip: %v -> %v", prev, a)
		}
		prev = a
		if !pg.IsEmpty() && !pg.Contains(site) {
			t.Fatal("site must stay inside its own Voronoi cell")
		}
	}
	if pg.IsEmpty() {
		t.Fatal("cell of an interior site should not be empty")
	}
}

// Property: after clipping the unit square by bisectors of `site` versus a
// few random other sites, every vertex of the result is at least as close to
// site as to each other site — i.e. the polygon is inside the Voronoi cell.
func TestClipVoronoiCellProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		site := Point{rng.Float64(), rng.Float64()}
		pg := UnitSquare()
		others := make([]Point, 0, 8)
		for i := 0; i < 8; i++ {
			o := Point{rng.Float64(), rng.Float64()}
			if o == site {
				continue
			}
			others = append(others, o)
			pg = pg.Clip(Bisector(site, o))
		}
		for _, v := range pg.Vertices {
			for _, o := range others {
				if v.Dist2(site) > v.Dist2(o)+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPolygonContains(t *testing.T) {
	sq := UnitSquare()
	if !sq.Contains(Point{0.5, 0.5}) {
		t.Error("center must be inside")
	}
	if !sq.Contains(Point{0, 0}) {
		t.Error("corner must be boundary-inclusive")
	}
	if sq.Contains(Point{1.1, 0.5}) {
		t.Error("outside point must be excluded")
	}
	if (Polygon{}).Contains(Point{0.5, 0.5}) {
		t.Error("empty polygon contains nothing")
	}
}

func TestPolygonBoundsAndMaxDist(t *testing.T) {
	sq := UnitSquare()
	b := sq.Bounds()
	if b.Min != (Point{0, 0}) || b.Max != (Point{1, 1}) {
		t.Errorf("Bounds = %v", b)
	}
	if d := sq.MaxDist(Point{0, 0}); math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Errorf("MaxDist = %v, want sqrt(2)", d)
	}
	if !(Polygon{}).Bounds().IsEmpty() {
		t.Error("empty polygon bounds must be empty")
	}
}

func TestNewBoxRoundTrip(t *testing.T) {
	r := Rect{Point{0.1, 0.2}, Point{0.6, 0.9}}
	pg := NewBox(r)
	if got := pg.Bounds(); got != r {
		t.Errorf("NewBox bounds = %v, want %v", got, r)
	}
	if math.Abs(pg.Area()-r.Area()) > 1e-12 {
		t.Errorf("NewBox area mismatch")
	}
}

func TestIntersectsRect(t *testing.T) {
	tri := Polygon{Vertices: []Point{{0.4, 0.4}, {0.6, 0.4}, {0.5, 0.6}}}
	tests := []struct {
		r    Rect
		want bool
	}{
		{Rect{Point{0, 0}, Point{1, 1}}, true},           // rect contains polygon
		{Rect{Point{0.45, 0.45}, Point{0.5, 0.5}}, true}, // rect inside polygon
		{Rect{Point{0.7, 0.7}, Point{0.9, 0.9}}, false},  // disjoint
		{Rect{Point{0.55, 0.3}, Point{0.9, 0.45}}, true}, // edge crossing
		{Rect{Point{0, 0}, Point{0.4, 0.4}}, true},       // touching corner
	}
	for i, tc := range tests {
		if got := tri.IntersectsRect(tc.r); got != tc.want {
			t.Errorf("case %d: IntersectsRect(%v) = %v, want %v", i, tc.r, got, tc.want)
		}
	}
	if (Polygon{}).IntersectsRect(Rect{Point{0, 0}, Point{1, 1}}) {
		t.Error("empty polygon intersects nothing")
	}
}

// refIntersectsRect is IntersectsRect as it was before the separating-edge
// reject, with the Contains it called: the reference the fast one must
// agree with exactly.
func refIntersectsRect(pg Polygon, r Rect) bool {
	if pg.IsEmpty() {
		return false
	}
	for _, v := range pg.Vertices {
		if r.Contains(v) {
			return true
		}
	}
	n := len(pg.Vertices)
	contains := func(p Point) bool {
		for i := 0; i < n; i++ {
			a, b := pg.Vertices[i], pg.Vertices[(i+1)%n]
			if b.Sub(a).Cross(p.Sub(a)) < -hpEps {
				return false
			}
		}
		return true
	}
	corners := [4]Point{r.Min, {r.Max.X, r.Min.Y}, r.Max, {r.Min.X, r.Max.Y}}
	for _, c := range corners {
		if contains(c) {
			return true
		}
	}
	for i := 0; i < n; i++ {
		a, b := pg.Vertices[i], pg.Vertices[(i+1)%n]
		for j := 0; j < 4; j++ {
			if segmentsIntersect(a, b, corners[j], corners[(j+1)%4]) {
				return true
			}
		}
	}
	return false
}

// voronoiCellOf clips the unit square to the cell of sites[i].
func voronoiCellOf(sites []Point, i int) Polygon {
	pg := UnitSquare()
	for j, o := range sites {
		if j != i && o != sites[i] {
			pg = pg.Clip(Bisector(sites[i], o))
		}
	}
	return pg
}

// randConvex returns one of the convex polygons the NN search tests
// rectangles against, chosen by kind: a Voronoi cell of random sites, the
// CutConvex sliver of two nearly disjoint neighbouring cells (zero area,
// along their shared edge), or a cell with a vertex split into an edge
// shorter than hpEps.
func randConvex(rng *rand.Rand, kind int) Polygon {
	sites := make([]Point, 3+rng.Intn(12))
	for i := range sites {
		sites[i] = Point{rng.Float64(), rng.Float64()}
	}
	switch kind % 3 {
	case 1:
		a := voronoiCellOf(sites, 0)
		// The site nearest site 0 is a Voronoi neighbour: the cells share an edge.
		near := 1
		for j := 2; j < len(sites); j++ {
			if sites[j].Dist2(sites[0]) < sites[near].Dist2(sites[0]) {
				near = j
			}
		}
		cur, spare := append([]Point(nil), a.Vertices...), []Point(nil)
		CutConvex(&cur, &spare, voronoiCellOf(sites, near))
		if len(cur) < 3 {
			return Polygon{}
		}
		return Polygon{Vertices: cur}
	case 2:
		pg := voronoiCellOf(sites, 0)
		if pg.IsEmpty() {
			return pg
		}
		v := pg.Vertices
		i := rng.Intn(len(v))
		d := v[(i+1)%len(v)].Sub(v[i])
		split := v[i].Add(d.Scale(1e-14 / math.Max(math.Hypot(d.X, d.Y), 1e-300)))
		out := append(append(append([]Point(nil), v[:i+1]...), split), v[i+1:]...)
		return Polygon{Vertices: out}
	}
	return voronoiCellOf(sites, 0)
}

// edgeRect returns a w×h rectangle just off edge e of pg: the corner
// nearest the edge's line lies at signed distance off outside it (inside
// for negative off), at the point a fraction along of the way from the
// edge's start, and the rectangle extends away from the polygon.
func edgeRect(pg Polygon, e int, along, off, w, h float64) Rect {
	n := len(pg.Vertices)
	a, b := pg.Vertices[e%n], pg.Vertices[(e+1)%n]
	d := b.Sub(a)
	l := math.Hypot(d.X, d.Y)
	if l == 0 {
		return RectOf(a)
	}
	out := Point{d.Y / l, -d.X / l} // right of a→b: outside a CCW polygon
	p := a.Add(d.Scale(along)).Add(out.Scale(off))
	q := p.Add(Point{math.Copysign(w, out.X), math.Copysign(h, out.Y)})
	return RectOf(p).Extend(q)
}

// The separating-edge reject returns false only where the full test does:
// IntersectsRect must agree with the pre-change reference on random convex
// polygons against random rectangles, on CutConvex slivers, on polygons
// with an edge shorter than hpEps, and on rectangles hpEps and sepEps off
// each edge, in distance and in cross-product units, on either side.
func TestIntersectsRectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	rejected := 0
	check := func(pg Polygon, r Rect) {
		t.Helper()
		got, want := pg.IntersectsRect(r), refIntersectsRect(pg, r)
		if got != want {
			t.Fatalf("polygon %v, rect %v: IntersectsRect %v, reference %v", pg.Vertices, r, got, want)
		}
		if !got {
			rejected++
		}
	}
	for trial := 0; trial < 3000; trial++ {
		pg := randConvex(rng, trial)
		if pg.IsEmpty() {
			continue
		}
		for i := 0; i < 8; i++ {
			a := Point{rng.Float64()*1.2 - 0.1, rng.Float64()*1.2 - 0.1}
			s := math.Pow(10, -4*rng.Float64())
			check(pg, RectOf(a).Extend(a.Add(Point{s * rng.Float64(), s * rng.Float64()})))
		}
		for e := range pg.Vertices {
			d := pg.Vertices[(e+1)%len(pg.Vertices)].Sub(pg.Vertices[e])
			l := math.Hypot(d.X, d.Y)
			if l == 0 {
				continue
			}
			for _, eps := range []float64{hpEps, sepEps, hpEps / l, sepEps / l} {
				for _, m := range []float64{-2, -1, -0.5, 0, 0.5, 1, 2} {
					w := math.Pow(10, -6*rng.Float64())
					check(pg, edgeRect(pg, e, rng.Float64(), m*eps, w, w*rng.Float64()))
					check(pg, edgeRect(pg, e, 0, m*eps, w, w))
					check(pg, edgeRect(pg, e, 1, m*eps, 0, 0))
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no rectangle was rejected: the cases do not reach the reject")
	}
}

// FuzzIntersectsRect holds IntersectsRect to the pre-change reference on a
// rectangle of any size placed at any offset from an edge of a polygon of
// the three kinds randConvex makes.
func FuzzIntersectsRect(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.5, 1e-9, 0.1, 0.1)
	f.Add(int64(2), uint8(1), 0.0, -1e-12, 1e-6, 0.0)
	f.Add(int64(3), uint8(2), 1.0, 2e-9, 0.0, 0.0)
	f.Add(int64(4), uint8(5), 0.3, -1e-9, 0.5, 1e-3)
	f.Fuzz(func(t *testing.T, seed int64, edge uint8, along, off, w, h float64) {
		for _, v := range []float64{along, off, w, h} {
			if !(math.Abs(v) <= 2) {
				t.Skip()
			}
		}
		rng := rand.New(rand.NewSource(seed))
		pg := randConvex(rng, int(edge))
		if pg.IsEmpty() {
			t.Skip()
		}
		r := edgeRect(pg, int(edge), along, off, math.Abs(w), math.Abs(h))
		if got, want := pg.IntersectsRect(r), refIntersectsRect(pg, r); got != want {
			t.Fatalf("polygon %v, rect %v: IntersectsRect %v, reference %v", pg.Vertices, r, got, want)
		}
	})
}

func TestPolygonAreaTriangle(t *testing.T) {
	tri := Polygon{Vertices: []Point{{0, 0}, {1, 0}, {0, 1}}}
	if a := tri.Area(); math.Abs(a-0.5) > 1e-12 {
		t.Errorf("triangle area = %v, want 0.5", a)
	}
}
