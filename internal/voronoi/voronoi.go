// Package voronoi computes Voronoi cells incrementally by half-plane
// clipping, as required by the nearest-neighbor variant of spatio-textual
// preference queries (paper Section 7.2).
//
// The cell of a site t_i is the region whose points have t_i as their
// nearest neighbor within the feature set. It is built by clipping a
// bounding polygon with the perpendicular bisectors of t_i and its
// neighbors. A neighbor at least twice as far from the site as the farthest
// cell vertex cannot cut the cell, and the cell only shrinks, so the rule
// holds per neighbor whatever the order they arrive in: Clip passes such a
// neighbor over, and a caller that walks an index may skip a whole node
// whose MINDIST² is at or beyond Reach2. Neighbors in increasing distance
// (ComputeCell, Done) make the rule a stopping rule — the paper's — and
// keep the number of clips lowest; any other order gives the same cell up
// to the last bits of a vertex.
package voronoi

import (
	"stpq/internal/geo"
)

// CellBuilder incrementally constructs the Voronoi cell of one site. It
// cuts the polygon in place between two vertex buffers it keeps across
// Reset, so a builder that is reused allocates only the copy Cell returns.
type CellBuilder struct {
	site geo.Point
	// cur holds the cell's vertices; the next clip writes into spare and
	// the two swap.
	cur, spare []geo.Point
	maxDist2   float64 // squared max distance from site to any cell vertex
	clips      int
}

// NewCellBuilder starts a cell for site bounded by the given polygon
// (typically the unit square of the normalized data space).
func NewCellBuilder(site geo.Point, bound geo.Polygon) *CellBuilder {
	b := &CellBuilder{}
	b.Reset(site, bound)
	return b
}

// Reset starts a new cell for site within bound, keeping the builder's
// buffers.
func (b *CellBuilder) Reset(site geo.Point, bound geo.Polygon) {
	b.site, b.clips = site, 0
	b.cur = append(b.cur[:0], bound.Vertices...)
	b.measure()
}

// measure recomputes maxDist2 from the current vertices.
func (b *CellBuilder) measure() {
	b.maxDist2 = 0
	for _, v := range b.cur {
		if d := b.site.Dist2(v); d > b.maxDist2 {
			b.maxDist2 = d
		}
	}
}

// Clip intersects the current cell with the half-plane of points at least
// as close to the site as to other, unless other lies at or beyond the
// reach and cannot cut it. Clipping with the site itself is a no-op.
func (b *CellBuilder) Clip(other geo.Point) {
	if other == b.site || b.site.Dist2(other) >= b.Reach2() {
		return
	}
	b.clips++
	b.spare = geo.ClipAppend(b.spare[:0], b.cur, geo.Bisector(b.site, other))
	b.cur, b.spare = b.spare, b.cur
	if len(b.cur) < 3 {
		b.cur = b.cur[:0]
	}
	b.measure()
}

// Reach2 returns the squared distance from the site at or beyond which
// nothing can modify the cell, (2·maxDist(site, cell))²: for any cell point
// q and a neighbor that far, dist(q, neighbor) ≥ 2·maxDist − dist(q, site)
// ≥ dist(q, site), so the bisector cannot exclude q.
func (b *CellBuilder) Reach2() float64 { return 4 * b.maxDist2 }

// Done reports whether the cell is final given that every remaining
// neighbor is at least nextDist from the site.
func (b *CellBuilder) Done(nextDist float64) bool {
	return nextDist*nextDist >= b.Reach2()
}

// Cell returns a copy of the current cell polygon; the builder's next clip
// or Reset does not touch it.
func (b *CellBuilder) Cell() geo.Polygon {
	return geo.Polygon{Vertices: append([]geo.Point(nil), b.cur...)}
}

// Clips returns the number of bisector clips applied (a CPU-cost metric).
func (b *CellBuilder) Clips() int { return b.clips }

// ComputeCell builds the exact Voronoi cell of site within bound given a
// stream of neighbors in non-decreasing distance. next returns the
// neighbor point and true, or false when the stream is exhausted. The
// stream is consumed only as far as the stopping rule requires.
func ComputeCell(site geo.Point, bound geo.Polygon, next func() (geo.Point, bool)) geo.Polygon {
	b := NewCellBuilder(site, bound)
	for {
		p, ok := next()
		if !ok {
			return b.Cell()
		}
		if b.Done(p.Dist(site)) {
			return b.Cell()
		}
		b.Clip(p)
	}
}
