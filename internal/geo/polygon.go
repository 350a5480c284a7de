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

// unitRound is the unit roundoff of float64 arithmetic, 2^−53: a rounded
// operation's relative error is at most this.
const unitRound = 0x1p-53

// boxShift is how far outside an edge a→b, in the units of
// (b−a)×(p−a), the containment box places the edge's line: Contains
// accepts p on the edge when the rounded cross product is ≥ −hpEps, so
// the exact one is ≥ −hpEps − γ₃·|b−a|·|p−a| (γ₃ = 3u/(1−3u), u =
// unitRound; a fused multiply-add only rounds less). The γ₃ term divides
// into hpEps/(1−γ₃), which this bounds, and a turn of the line by at most
// γ₃/(1−γ₃) radians about its shifted point, which ContainBox's corner
// slack covers.
const boxShift = hpEps * (1 + 16*unitRound)

// boxShortEdge and boxSinMin choose the edges a containment box is cut
// from. An edge shorter than boxShortEdge × the longest edge is left out
// (a near-duplicate vertex's edge points anywhere, and its line's shift
// hpEps/|b−a| is large); of two consecutive edges whose turn has a sine
// below boxSinMin the second is left out when they point the same way,
// and the box is the whole plane when they do not. Leaving an edge out
// only enlarges the box: Contains tests every edge.
const (
	boxShortEdge = 0x1p-16
	boxSinMin    = 0x1p-20
)

// boxEdge is one edge a→a+e of a polygon, with l = |e.X| + |e.Y|: at
// least its length and at most √2 times it, so a sine estimated with it
// is at most the turn's own, and a slack that divides by it is the
// larger.
type boxEdge struct {
	a, e Point
	l    float64
}

// wholePlane returns the rectangle that holds every point.
func wholePlane() Rect {
	return Rect{Min: Point{math.Inf(-1), math.Inf(-1)}, Max: Point{math.Inf(1), math.Inf(1)}}
}

// ContainBox returns two rectangles that bound what the polygon's tests
// accept, tolerances included: pts holds every finite point Contains
// accepts, and rects meets every rectangle IntersectsRect accepts. Each
// can only reject: a point outside pts fails Contains, a rectangle
// missing rects fails IntersectsRect, so four compares may stand in front
// of either test. An empty polygon gets two empty rectangles; a polygon
// whose edges cannot bound a box — a non-finite coordinate, edges whose
// lengths leave float64's comfortable range, fewer than three edges left
// by the selection above, two consecutive edges nearly opposite — gets
// the whole plane for both.
//
// The construction (DESIGN.md §4): each kept edge's line is shifted
// outward to (b−a)×(p−a) = −boxShift. Consecutive kept edges turn left by
// less than π, so every direction d lies between the outward normals of
// some consecutive pair, and the wedge those two shifted lines bound has
// its largest d·p at their intersection: every point all the lines accept
// lies in the bounding box of those intersections. Each intersection is
// grown by a slack that covers its own rounding and the lines' turn; the
// rectangle bound adds the vertices' bounding box, grown by onSegment's
// hpEps and the rounding of its coordinate compares.
func (pg Polygon) ContainBox() (pts, rects Rect) {
	n := len(pg.Vertices)
	if n < 3 {
		return EmptyRect(), EmptyRect()
	}
	var buf [16]boxEdge
	edges := buf[:0]
	// The vertices' bounding box, the longest edge and the largest
	// coordinate magnitude, by plain compares; a NaN makes longest or mag
	// NaN, which the range test refuses.
	bounds := EmptyRect()
	longest, mag := 0.0, 0.0
	a := pg.Vertices[n-1]
	for _, b := range pg.Vertices {
		e := b.Sub(a) // Contains's own edge vector
		l := math.Abs(e.X) + math.Abs(e.Y)
		edges = append(edges, boxEdge{a: a, e: e, l: l})
		if !(l <= longest) {
			longest = l
		}
		if m := math.Abs(b.X) + math.Abs(b.Y); !(m <= mag) {
			mag = m
		}
		bounds.Min.X, bounds.Max.X = min(bounds.Min.X, b.X), max(bounds.Max.X, b.X)
		bounds.Min.Y, bounds.Max.Y = min(bounds.Min.Y, b.Y), max(bounds.Max.Y, b.Y)
		a = b
	}
	// The range keeps every product below finite and normal: kept edges
	// are at least 2^−16 of the longest.
	if !(longest >= 1e-100 && longest <= 1e100 && mag <= 1e100) {
		return wholePlane(), wholePlane()
	}
	kept := edges[:0]
	for _, ed := range edges {
		if ed.l < longest*boxShortEdge {
			continue
		}
		if len(kept) > 0 {
			switch boxTurn(&kept[len(kept)-1], &ed) {
			case turnDrop:
				continue
			case turnFail:
				return wholePlane(), wholePlane()
			}
		}
		kept = append(kept, ed)
	}
	for len(kept) >= 3 {
		t := boxTurn(&kept[len(kept)-1], &kept[0])
		if t == turnKeep {
			break
		}
		if t == turnFail {
			return wholePlane(), wholePlane()
		}
		kept = kept[:len(kept)-1]
	}
	if len(kept) < 3 {
		return wholePlane(), wholePlane()
	}
	pts = EmptyRect()
	prev := &kept[len(kept)-1]
	for i := range kept {
		cur := &kept[i]
		w, slack := boxCorner(prev, cur)
		if lo := w.X - slack; lo < pts.Min.X {
			pts.Min.X = lo
		}
		if lo := w.Y - slack; lo < pts.Min.Y {
			pts.Min.Y = lo
		}
		if hi := w.X + slack; hi > pts.Max.X {
			pts.Max.X = hi
		}
		if hi := w.Y + slack; hi > pts.Max.Y {
			pts.Max.Y = hi
		}
		prev = cur
	}
	if math.IsNaN(pts.Min.X + pts.Min.Y + pts.Max.X + pts.Max.Y) {
		return wholePlane(), wholePlane()
	}
	grow := hpEps + 64*unitRound*(mag+hpEps)
	rects = Rect{
		Min: Point{min(pts.Min.X, bounds.Min.X) - grow, min(pts.Min.Y, bounds.Min.Y) - grow},
		Max: Point{max(pts.Max.X, bounds.Max.X) + grow, max(pts.Max.Y, bounds.Max.Y) + grow},
	}
	return pts, rects
}

// How boxTurn judges two consecutive edges: keep the second, leave it out
// (the two point the same way), or give up on the box.
const (
	turnKeep = iota
	turnDrop
	turnFail
)

// boxTurn judges the turn from edge p to edge q by its sine,
// e_p×e_q / (|e_p|·|e_q|), estimated low with the edges' l.
func boxTurn(p, q *boxEdge) int {
	d, lim := p.e.Cross(q.e), boxSinMin*p.l*q.l
	switch {
	case d >= lim:
		return turnKeep
	case d > -lim && p.e.X*q.e.X+p.e.Y*q.e.Y > 0:
		return turnDrop
	}
	return turnFail
}

// boxCorner returns where the shifted lines of the consecutive kept edges
// p and q meet, and the slack that point is grown by. With Δ = q.a − p.a,
// g = e_p×Δ and D = e_p×e_q > 0, the point q.a + x with
// x = (k·e_p − (k+g)·e_q)/D has e_q×x = −k and e_p×(x+Δ) = −k, k =
// boxShift. Its rounding — of g, D, the quotient and the sum — and the
// lines' turn of at most γ₃/(1−γ₃) about points within 2(|x|+|Δ|) of it
// move it by less than 24u·(|x|+|Δ|)/S + u·(|q.a|+|x|), S =
// D/(|e_p|·|e_q|) the turn's sine (the quotient is taken as a product
// with 1/D, one rounding more); the slack is 64u times the larger
// expression, in 1-norms.
func boxCorner(p, q *boxEdge) (w Point, slack float64) {
	d := q.a.Sub(p.a)
	g := p.e.Cross(d)
	inv := 1 / p.e.Cross(q.e)
	x := Point{
		X: (boxShift*p.e.X - (boxShift+g)*q.e.X) * inv,
		Y: (boxShift*p.e.Y - (boxShift+g)*q.e.Y) * inv,
	}
	nx, nd := math.Abs(x.X)+math.Abs(x.Y), math.Abs(d.X)+math.Abs(d.Y)
	slack = 64 * unitRound * ((nx+nd)*(p.l*q.l*inv) + math.Abs(q.a.X) + math.Abs(q.a.Y) + nx)
	return q.a.Add(x), slack
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
