package geo

import "math"

// HalfPlane represents the set of points q with A·q.X + B·q.Y ≤ C.
//
// The perpendicular bisector between two sites a and b, keeping the side of
// a, is the canonical half-plane used by the incremental Voronoi-cell
// construction of the nearest-neighbor query variant (paper Section 7.2).
type HalfPlane struct {
	A, B, C float64
}

// Bisector returns the half-plane of points at least as close to a as to b.
func Bisector(a, b Point) HalfPlane {
	// |q-a|² ≤ |q-b|²  ⇔  2(b-a)·q ≤ |b|² − |a|²
	return HalfPlane{
		A: 2 * (b.X - a.X),
		B: 2 * (b.Y - a.Y),
		C: b.X*b.X + b.Y*b.Y - a.X*a.X - a.Y*a.Y,
	}
}

// Eval returns A·p.X + B·p.Y − C; non-positive values are inside.
func (h HalfPlane) Eval(p Point) float64 { return h.A*p.X + h.B*p.Y - h.C }

// Contains reports whether p satisfies the half-plane inequality.
func (h HalfPlane) Contains(p Point) bool { return h.Eval(p) <= hpEps }

// hpEps guards against floating point jitter when clipping polygons whose
// vertices lie exactly on a bisector.
const hpEps = 1e-12

// Polygon is a convex polygon given by its vertices in counter-clockwise
// order. The zero value is the empty polygon.
type Polygon struct {
	Vertices []Point
}

// UnitSquare returns the polygon covering the normalized data space.
func UnitSquare() Polygon {
	return Polygon{Vertices: []Point{{0, 0}, {1, 0}, {1, 1}, {0, 1}}}
}

// NewBox returns the rectangle r as a polygon.
func NewBox(r Rect) Polygon {
	return Polygon{Vertices: []Point{
		r.Min, {r.Max.X, r.Min.Y}, r.Max, {r.Min.X, r.Max.Y},
	}}
}

// IsEmpty reports whether the polygon has no interior (fewer than 3 vertices).
func (pg Polygon) IsEmpty() bool { return len(pg.Vertices) < 3 }

// Clip returns the intersection of pg with the half-plane h. The result is
// again convex. Clipping an empty polygon yields an empty polygon.
func (pg Polygon) Clip(h HalfPlane) Polygon {
	n := len(pg.Vertices)
	if n == 0 {
		return Polygon{}
	}
	out := ClipAppend(make([]Point, 0, n+1), pg.Vertices, h)
	if len(out) < 3 {
		return Polygon{}
	}
	return Polygon{Vertices: out}
}

// ClipAppend appends to dst the vertices of the convex polygon src cut by the
// half-plane h — the Sutherland–Hodgman algorithm specialized to a single
// clip edge — and returns the extended slice; fewer than three appended
// vertices mean the intersection is empty. dst must not share memory with
// src. It is the one clip kernel: callers that cut a polygon many times
// alternate between two buffers and allocate nothing.
func ClipAppend(dst, src []Point, h HalfPlane) []Point {
	if len(src) == 0 {
		return dst
	}
	prev := src[len(src)-1]
	prevIn := h.Contains(prev)
	for _, cur := range src {
		curIn := h.Contains(cur)
		if curIn != prevIn {
			dst = append(dst, h.segIntersect(prev, cur))
		}
		if curIn {
			dst = append(dst, cur)
		}
		prev, prevIn = cur, curIn
	}
	return dst
}

// segIntersect returns the point where segment ab crosses the boundary line
// of h. It must only be called when a and b are on opposite sides.
func (h HalfPlane) segIntersect(a, b Point) Point {
	fa, fb := h.Eval(a), h.Eval(b)
	t := fa / (fa - fb)
	if math.IsNaN(t) || math.IsInf(t, 0) {
		t = 0.5
	}
	return Point{a.X + t*(b.X-a.X), a.Y + t*(b.Y-a.Y)}
}

// sepEps is how far outside one edge's line every corner of a rectangle
// must lie for IntersectsRect to reject it on that edge alone: far above
// hpEps and the rounding of a clipped polygon's vertices, so a rejected
// rectangle is one the full test would reject too.
const sepEps = 1e-9

// Contains reports whether p lies inside the convex polygon (boundary
// inclusive). Vertices must be in counter-clockwise order.
func (pg Polygon) Contains(p Point) bool {
	if len(pg.Vertices) < 3 {
		return false
	}
	a := pg.Vertices[len(pg.Vertices)-1]
	for _, b := range pg.Vertices {
		if b.Sub(a).Cross(p.Sub(a)) < -hpEps {
			return false
		}
		a = b
	}
	return true
}

// Bounds returns the bounding rectangle of the polygon, or an empty Rect
// for an empty polygon.
func (pg Polygon) Bounds() Rect {
	if len(pg.Vertices) == 0 {
		return EmptyRect()
	}
	r := RectOf(pg.Vertices[0])
	for _, v := range pg.Vertices[1:] {
		r = r.Extend(v)
	}
	return r
}

// MaxDist returns the maximum distance from p to any vertex of pg. For a
// convex polygon this equals the maximum distance from p to any point of
// the polygon, which drives the Voronoi construction's stopping rule.
func (pg Polygon) MaxDist(p Point) float64 {
	max := 0.0
	for _, v := range pg.Vertices {
		if d := p.Dist(v); d > max {
			max = d
		}
	}
	return max
}

// Area returns the area of the polygon (shoelace formula).
func (pg Polygon) Area() float64 {
	n := len(pg.Vertices)
	if n < 3 {
		return 0
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += pg.Vertices[i].Cross(pg.Vertices[(i+1)%n])
	}
	return math.Abs(sum) / 2
}

// IntersectsRect reports whether the convex polygon and the rectangle share
// at least one point: a polygon vertex inside r, a corner of r inside the
// polygon (Contains, with its hpEps), or a polygon edge meeting an edge of
// r. Before those tests it rejects r when one polygon edge a→b has all four
// corners c strictly outside it, (b−a)×(c−a) < −sepEps — the expression
// Contains tests, with a margin far above its own. That cannot turn a true
// into a false: each corner then fails Contains on that edge, and every
// vertex and edge point of a convex polygon (one cut by ClipAppend is
// convex up to rounding) lies on or inside the edge's line, while every
// point of r lies more than sepEps outside it, so no vertex lies in r and
// no edges meet.
func (pg Polygon) IntersectsRect(r Rect) bool {
	if pg.IsEmpty() {
		return false
	}
	corners := [4]Point{r.Min, {r.Max.X, r.Min.Y}, r.Max, {r.Min.X, r.Max.Y}}
	a := pg.Vertices[len(pg.Vertices)-1]
	for _, b := range pg.Vertices {
		e := b.Sub(a)
		if e.Cross(corners[0].Sub(a)) < -sepEps && e.Cross(corners[1].Sub(a)) < -sepEps &&
			e.Cross(corners[2].Sub(a)) < -sepEps && e.Cross(corners[3].Sub(a)) < -sepEps {
			return false
		}
		a = b
	}
	for _, v := range pg.Vertices {
		if r.Contains(v) {
			return true
		}
	}
	for _, c := range corners {
		if pg.Contains(c) {
			return true
		}
	}
	a = pg.Vertices[len(pg.Vertices)-1]
	for _, b := range pg.Vertices {
		c := corners[3]
		for _, d := range corners {
			if segmentsIntersect(a, b, c, d) {
				return true
			}
			c = d
		}
		a = b
	}
	return false
}

// EdgeHalfPlane returns the half-plane to the left of the directed edge
// a→b. For a convex polygon with counter-clockwise vertices, the interior
// is the intersection of the half-planes of its edges.
func EdgeHalfPlane(a, b Point) HalfPlane {
	// Left of a→b: (b−a) × (q−a) ≥ 0  ⇔  (b.Y−a.Y)q.X − (b.X−a.X)q.Y ≤ b.Y·a.X − ... derive:
	// cross = (b.X−a.X)(q.Y−a.Y) − (b.Y−a.Y)(q.X−a.X) ≥ 0
	// ⇔ (b.Y−a.Y)q.X − (b.X−a.X)q.Y ≤ (b.Y−a.Y)a.X − (b.X−a.X)a.Y
	return HalfPlane{
		A: b.Y - a.Y,
		B: -(b.X - a.X),
		C: (b.Y-a.Y)*a.X - (b.X-a.X)*a.Y,
	}
}

// IntersectConvex returns the intersection of two convex polygons (both
// with counter-clockwise vertices).
func (pg Polygon) IntersectConvex(other Polygon) Polygon {
	cur, spare := append([]Point(nil), pg.Vertices...), []Point(nil)
	if CutConvex(&cur, &spare, other); len(cur) < 3 {
		return Polygon{}
	}
	return Polygon{Vertices: cur}
}

// CutConvex replaces the convex polygon in *cur by its intersection with the
// convex polygon other, clipping it against every edge half-plane of other;
// fewer than three vertices left mean the intersection is empty. Each cut
// writes into *spare and the two swap, so both keep their capacity for a
// caller that intersects many polygons. It is used to intersect Voronoi
// cells across feature sets (paper Section 7.2).
func CutConvex(cur, spare *[]Point, other Polygon) {
	if other.IsEmpty() {
		*cur = (*cur)[:0]
	}
	n := len(other.Vertices)
	for i := 0; i < n && len(*cur) >= 3; i++ {
		h := EdgeHalfPlane(other.Vertices[i], other.Vertices[(i+1)%n])
		*spare = ClipAppend((*spare)[:0], *cur, h)
		*cur, *spare = *spare, *cur
	}
}

// segmentsIntersect reports whether segments ab and cd intersect.
func segmentsIntersect(a, b, c, d Point) bool {
	d1 := b.Sub(a).Cross(c.Sub(a))
	d2 := b.Sub(a).Cross(d.Sub(a))
	d3 := d.Sub(c).Cross(a.Sub(c))
	d4 := d.Sub(c).Cross(b.Sub(c))
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	return onSegment(a, b, c) || onSegment(a, b, d) ||
		onSegment(c, d, a) || onSegment(c, d, b)
}

// onSegment reports whether p lies on segment ab.
func onSegment(a, b, p Point) bool {
	if math.Abs(b.Sub(a).Cross(p.Sub(a))) > hpEps {
		return false
	}
	return p.X >= math.Min(a.X, b.X)-hpEps && p.X <= math.Max(a.X, b.X)+hpEps &&
		p.Y >= math.Min(a.Y, b.Y)-hpEps && p.Y <= math.Max(a.Y, b.Y)+hpEps
}
