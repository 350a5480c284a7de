package geo

import (
	"math"
	"math/rand"
	"testing"
)

// boxViolation reports what a containment box fails to bound: a point
// Contains accepts outside pts, or a rectangle IntersectsRect accepts that
// misses rects. It returns "" when the box holds both.
func boxViolation(pg Polygon, p Point, r Rect) string {
	pts, rects := pg.ContainBox()
	if pg.Contains(p) && !pts.Contains(p) {
		return "point " + p.String() + " accepted by Contains lies outside the box"
	}
	if pg.IntersectsRect(r) && !rects.Intersects(r) {
		return "rectangle accepted by IntersectsRect misses the box"
	}
	return ""
}

// edgePoint returns the point a fraction along of the way along edge e of
// pg, moved off outward (right of the edge, outside a CCW polygon) by off,
// or inward for negative off.
func edgePoint(pg Polygon, e int, along, off float64) Point {
	n := len(pg.Vertices)
	a, b := pg.Vertices[e%n], pg.Vertices[(e+1)%n]
	d := b.Sub(a)
	l := math.Hypot(d.X, d.Y)
	if l == 0 {
		return a
	}
	return a.Add(d.Scale(along)).Add(Point{d.Y / l, -d.X / l}.Scale(off))
}

func TestContainBoxTable(t *testing.T) {
	whole := wholePlane()
	for _, tc := range []struct {
		name string
		pg   Polygon
		// want is the expected pts box when exact is set; otherwise pts
		// must hold the polygon's bounds within 1e-8.
		want  Rect
		exact bool
	}{
		{name: "empty", pg: Polygon{}, want: EmptyRect(), exact: true},
		{name: "two vertices", pg: Polygon{Vertices: []Point{{0, 0}, {1, 1}}}, want: EmptyRect(), exact: true},
		{name: "unit square", pg: UnitSquare()},
		{name: "triangle", pg: Polygon{Vertices: []Point{{0.1, 0.1}, {0.9, 0.2}, {0.4, 0.8}}}},
		{name: "sliver", pg: Polygon{Vertices: []Point{{0.1, 0.5}, {0.9, 0.5 - 1e-3}, {0.9, 0.5}}}},
		{name: "duplicate vertex", pg: Polygon{Vertices: []Point{{0.2, 0.2}, {0.8, 0.2}, {0.8, 0.2}, {0.8, 0.8}, {0.2, 0.8}}}},
		{name: "near-duplicate vertex", pg: Polygon{Vertices: []Point{{0.2, 0.2}, {0.8, 0.2}, {0.8 + 1e-16, 0.2 + 1e-15}, {0.8, 0.8}, {0.2, 0.8}}}},
		{name: "collinear vertex", pg: Polygon{Vertices: []Point{{0.2, 0.2}, {0.5, 0.2}, {0.8, 0.2}, {0.8, 0.8}, {0.2, 0.8}}}},
		{name: "one point", pg: Polygon{Vertices: []Point{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}}}, want: whole, exact: true},
		{name: "needle", pg: Polygon{Vertices: []Point{{0.1, 0.5}, {0.9, 0.5 - 1e-7}, {0.9, 0.5}}}, want: whole, exact: true},
		{name: "segment", pg: Polygon{Vertices: []Point{{0.1, 0.1}, {0.5, 0.5}, {0.9, 0.9}}}, want: whole, exact: true},
		{name: "clockwise", pg: Polygon{Vertices: []Point{{0, 0}, {0, 1}, {1, 1}, {1, 0}}}, want: whole, exact: true},
		{name: "NaN vertex", pg: Polygon{Vertices: []Point{{0, 0}, {math.NaN(), 0}, {1, 1}}}, want: whole, exact: true},
		{name: "infinite vertex", pg: Polygon{Vertices: []Point{{0, 0}, {math.Inf(1), 0}, {1, 1}}}, want: whole, exact: true},
	} {
		pts, rects := tc.pg.ContainBox()
		if tc.exact {
			if pts != tc.want || rects != tc.want {
				t.Errorf("%s: box %v / %v, want %v", tc.name, pts, rects, tc.want)
			}
			continue
		}
		b := tc.pg.Bounds()
		if !pts.ContainsRect(b) || !rects.ContainsRect(pts) {
			t.Errorf("%s: box %v / %v does not hold the bounds %v", tc.name, pts, rects, b)
		}
		if d := math.Max(math.Max(b.Min.X-pts.Min.X, b.Min.Y-pts.Min.Y), math.Max(pts.Max.X-b.Max.X, pts.Max.Y-b.Max.Y)); d > 1e-8 {
			t.Errorf("%s: box %v is %g beyond the bounds %v", tc.name, pts, d, b)
		}
	}
	// The unit square's box is its edges shifted by boxShift and grown by
	// a slack: a point hpEps outside an edge is in it, a point 1e-9 out is
	// not — the box rejects what Contains rejects with room to spare.
	pts, _ := UnitSquare().ContainBox()
	for _, p := range []Point{{-hpEps, 0.5}, {1 + hpEps/2, 1 + hpEps/2}, {0.5, -hpEps}} {
		if !UnitSquare().Contains(p) || !pts.Contains(p) {
			t.Errorf("%v: Contains %v, box %v", p, UnitSquare().Contains(p), pts.Contains(p))
		}
	}
	for _, p := range []Point{{-1e-9, 0.5}, {1, 1 + 1e-9}} {
		if pts.Contains(p) {
			t.Errorf("%v: the box %v holds a point 1e-9 outside the square", p, pts)
		}
	}
}

// The box holds what the tests accept on the polygons the NN search cuts
// — Voronoi cells, CutConvex slivers, cells with an edge shorter than
// hpEps — at points and rectangles hpEps and sepEps off each edge, in
// distance and in cross-product units, at points around each vertex, and
// at random points and rectangles. Plain cells must get a box: a
// whole-plane fallback there would make the search test every point.
func TestContainBoxHoldsAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	accepted, rejected, whole := 0, 0, [3]int{}
	check := func(pg Polygon, p Point, r Rect) {
		t.Helper()
		if msg := boxViolation(pg, p, r); msg != "" {
			t.Fatalf("polygon %v, rect %v: %s", pg.Vertices, r, msg)
		}
		if pts, _ := pg.ContainBox(); pg.Contains(p) {
			accepted++
		} else if !pts.Contains(p) {
			rejected++
		}
	}
	for trial := 0; trial < 3000; trial++ {
		pg := randConvex(rng, trial)
		if pg.IsEmpty() {
			continue
		}
		if pts, _ := pg.ContainBox(); pts == wholePlane() {
			whole[trial%3]++
		}
		for i := 0; i < 8; i++ {
			a := Point{rng.Float64()*1.2 - 0.1, rng.Float64()*1.2 - 0.1}
			s := math.Pow(10, -4*rng.Float64())
			check(pg, a, RectOf(a).Extend(a.Add(Point{s * rng.Float64(), s * rng.Float64()})))
		}
		for e, v := range pg.Vertices {
			d := pg.Vertices[(e+1)%len(pg.Vertices)].Sub(v)
			l := math.Hypot(d.X, d.Y)
			if l == 0 {
				continue
			}
			for _, eps := range []float64{hpEps, sepEps, hpEps / l, sepEps / l} {
				for _, m := range []float64{-2, -1, -0.5, 0, 0.5, 1, 2} {
					w := math.Pow(10, -6*rng.Float64())
					check(pg, edgePoint(pg, e, rng.Float64(), m*eps), edgeRect(pg, e, rng.Float64(), m*eps, w, w*rng.Float64()))
					check(pg, edgePoint(pg, e, 0, m*eps), edgeRect(pg, e, 0, m*eps, w, w))
					check(pg, edgePoint(pg, e, 1, m*eps), edgeRect(pg, e, 1, m*eps, 0, 0))
					ang := 2 * math.Pi * rng.Float64()
					c := v.Add(Point{math.Cos(ang), math.Sin(ang)}.Scale(m * eps))
					check(pg, c, RectOf(c))
				}
			}
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("accepted %d, rejected by the box %d: the cases do not reach both sides", accepted, rejected)
	}
	t.Logf("whole plane by kind: %v", whole)
	if whole[0] > 0 || whole[2] > 0 {
		t.Fatalf("whole plane by kind %v: a cell, or a cell with a split vertex, got no box", whole)
	}
}

// FuzzContainBox holds the box to both tests at a point and a rectangle
// placed at any offset from an edge of a polygon of the three kinds
// randConvex makes, and at a point at any offset from the edge's start.
func FuzzContainBox(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.5, 1e-12, 0.1, 0.1)
	f.Add(int64(2), uint8(1), 0.0, -1e-12, 1e-6, 0.0)
	f.Add(int64(3), uint8(2), 1.0, 2e-9, 0.0, 0.0)
	f.Add(int64(4), uint8(5), 0.3, 5e-13, 0.5, 1e-3)
	f.Add(int64(5), uint8(3), 1.0, 1e-10, -1e-10, 3e-11)
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
		p := edgePoint(pg, int(edge), along, off)
		r := edgeRect(pg, int(edge), along, off, math.Abs(w), math.Abs(h))
		if msg := boxViolation(pg, p, r); msg != "" {
			t.Fatalf("polygon %v, rect %v: %s", pg.Vertices, r, msg)
		}
		v := pg.Vertices[int(edge)%len(pg.Vertices)].Add(Point{w * off, h * off})
		if msg := boxViolation(pg, v, RectOf(v)); msg != "" {
			t.Fatalf("polygon %v: %s", pg.Vertices, msg)
		}
	})
}
