// Package geo provides the planar geometry substrate used throughout the
// stpq library: points, axis-aligned rectangles (MBRs), Euclidean distance
// primitives, and the half-plane / convex-polygon machinery needed for the
// incremental Voronoi-cell computation of the nearest-neighbor query
// variant.
//
// All coordinates are normalized to the unit square [0,1]×[0,1], matching
// the experimental setup of the paper (Section 8.1).
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred primitive for comparisons.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Mid returns the midpoint of the segment pq.
func (p Point) Mid(q Point) Point {
	return Point{(p.X + q.X) / 2, (p.Y + q.Y) / 2}
}

// Sub returns the vector p−q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Add returns the vector sum p+q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Scale returns p scaled by f.
func (p Point) Scale(f float64) Point { return Point{p.X * f, p.Y * f} }

// Cross returns the z-component of the cross product p×q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Rect is an axis-aligned rectangle, used as a minimum bounding rectangle
// (MBR) by the spatial indexes. A Rect is valid when Min.X ≤ Max.X and
// Min.Y ≤ Max.Y; the zero value of Rect is the degenerate rectangle at the
// origin.
type Rect struct {
	Min, Max Point
}

// RectOf returns the degenerate rectangle covering exactly p.
func RectOf(p Point) Rect { return Rect{p, p} }

// EmptyRect returns an "inside-out" rectangle that acts as the identity for
// Union: unioning it with any rectangle r yields r.
func EmptyRect() Rect {
	return Rect{
		Min: Point{math.Inf(1), math.Inf(1)},
		Max: Point{math.Inf(-1), math.Inf(-1)},
	}
}

// IsEmpty reports whether r is an inside-out (empty) rectangle.
func (r Rect) IsEmpty() bool { return r.Min.X > r.Max.X || r.Min.Y > r.Max.Y }

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{math.Min(r.Min.X, s.Min.X), math.Min(r.Min.Y, s.Min.Y)},
		Max: Point{math.Max(r.Max.X, s.Max.X), math.Max(r.Max.Y, s.Max.Y)},
	}
}

// Extend returns the smallest rectangle containing r and the point p.
func (r Rect) Extend(p Point) Rect { return r.Union(RectOf(p)) }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Intersects reports whether r and s share at least one point.
func (r Rect) Intersects(s Rect) bool {
	return r.Min.X <= s.Max.X && s.Min.X <= r.Max.X &&
		r.Min.Y <= s.Max.Y && s.Min.Y <= r.Max.Y
}

// Area returns the area of r. Empty rectangles have area 0.
func (r Rect) Area() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) * (r.Max.Y - r.Min.Y)
}

// Perimeter returns half the perimeter (the margin) of r.
func (r Rect) Perimeter() float64 {
	if r.IsEmpty() {
		return 0
	}
	return (r.Max.X - r.Min.X) + (r.Max.Y - r.Min.Y)
}

// Center returns the center point of r.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// MinDist returns the minimum Euclidean distance from p to any point of r;
// it is 0 when p lies inside r. This is the classic R-tree MINDIST bound.
func (r Rect) MinDist(p Point) float64 {
	return math.Sqrt(r.MinDist2(p))
}

// MinDist2 returns the squared minimum distance from p to r.
func (r Rect) MinDist2(p Point) float64 {
	dx := axisDist(p.X, r.Min.X, r.Max.X)
	dy := axisDist(p.Y, r.Min.Y, r.Max.Y)
	return dx*dx + dy*dy
}

// MaxDist returns the maximum Euclidean distance from p to any point of r.
func (r Rect) MaxDist(p Point) float64 {
	return math.Sqrt(r.MaxDist2(p))
}

// MaxDist2 returns the squared maximum distance from p to r.
func (r Rect) MaxDist2(p Point) float64 {
	dx := math.Max(math.Abs(p.X-r.Min.X), math.Abs(p.X-r.Max.X))
	dy := math.Max(math.Abs(p.Y-r.Min.Y), math.Abs(p.Y-r.Max.Y))
	return dx*dx + dy*dy
}

// RectMinDist returns the minimum distance between any point of r and any
// point of s; it is 0 when the rectangles intersect.
func RectMinDist(r, s Rect) float64 {
	dx := gapDist(r.Min.X, r.Max.X, s.Min.X, s.Max.X)
	dy := gapDist(r.Min.Y, r.Max.Y, s.Min.Y, s.Max.Y)
	return math.Hypot(dx, dy)
}

// axisDist returns the 1-D distance from v to the interval [lo, hi].
func axisDist(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// gapDist returns the 1-D distance between intervals [aLo,aHi] and [bLo,bHi].
func gapDist(aLo, aHi, bLo, bHi float64) float64 {
	switch {
	case aHi < bLo:
		return bLo - aHi
	case bHi < aLo:
		return aLo - bHi
	default:
		return 0
	}
}

// Quantize maps a coordinate v ∈ [0,1] to an integer grid cell in
// [0, 2^bits). Values outside [0,1] are clamped. It is used to derive
// Hilbert sort keys for bulk loading.
func Quantize(v float64, bits uint) uint32 {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	max := float64(uint64(1)<<bits) - 1
	return uint32(math.Round(v * max))
}
