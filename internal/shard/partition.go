package shard

import (
	"fmt"
	"math"
	"sort"

	"stpq/internal/geo"
	"stpq/internal/hilbert"
	"stpq/internal/index"
)

// Strategy selects how the spatial partitioner slices objects and features
// into shard cells. Both strategies are pure functions of point location,
// so objects and the features around them land in the same cell — a
// locality heuristic only; correctness never depends on co-location
// because every traversal of a feature set covers all its parts.
type Strategy int

const (
	// HilbertRuns (default) sorts the data objects along a Hilbert curve
	// and cuts the curve into equal-count runs: cells are contiguous curve
	// intervals, so they adapt to the data distribution (every shard gets
	// ~|O|/S objects regardless of skew).
	HilbertRuns Strategy = iota
	// FixedGrid overlays a Gx×Gy grid (Gx·Gy = S, Gx ≤ Gy) on the object
	// MBR: cells are axis-aligned boxes of equal area, cheap to reason
	// about but unbalanced under skew.
	FixedGrid
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case FixedGrid:
		return "grid"
	default:
		return "hilbert"
	}
}

// curveBits is the per-dimension resolution of the partitioning curve,
// matching the bulk-load default of internal/index.
const curveBits = 16

// hilbertKey maps a point to its position on the partitioning curve.
func hilbertKey(p geo.Point) uint64 {
	return hilbert.Encode2D(geo.Quantize(p.X, curveBits), geo.Quantize(p.Y, curveBits), curveBits)
}

// partitioning assigns any point in the plane to one of `cells` cells. The
// same function partitions objects and features, keeping each feature in
// the part built next to the objects it most influences. It is pure data
// (curve boundaries or grid geometry, never closures) so a saved sharded
// engine can persist it and reopen with the identical cell function.
type partitioning struct {
	strategy Strategy
	cells    int
	// bounds are the S−1 Hilbert-curve boundary keys (HilbertRuns).
	bounds []uint64
	// mbr/gx/gy are the grid geometry (FixedGrid).
	mbr    geo.Rect
	gx, gy int
}

// assign maps a point to its cell.
func (p partitioning) assign(pt geo.Point) int {
	if p.strategy == FixedGrid {
		w := (p.mbr.Max.X - p.mbr.Min.X) / float64(p.gx)
		h := (p.mbr.Max.Y - p.mbr.Min.Y) / float64(p.gy)
		ix := gridCellOf(pt.X, p.mbr.Min.X, w, p.gx)
		iy := gridCellOf(pt.Y, p.mbr.Min.Y, h, p.gy)
		return iy*p.gx + ix
	}
	k := hilbertKey(pt)
	// First boundary strictly above k; its index is the cell.
	return sort.Search(len(p.bounds), func(i int) bool { return p.bounds[i] > k })
}

// PartitionMeta is the serializable form of a partitioning — pure data
// (curve boundaries or grid geometry), the "partition" section of the
// shards.json manifest, so a reopened engine assigns every point to the
// cell the saved one did.
type PartitionMeta struct {
	Strategy int      `json:"strategy"`
	Cells    int      `json:"cells"`
	Bounds   []uint64 `json:"bounds,omitempty"`
	MBR      geo.Rect `json:"mbr,omitempty"`
	Gx       int      `json:"gx,omitempty"`
	Gy       int      `json:"gy,omitempty"`
}

// meta lowers the runtime partitioning into its serializable form.
func (p partitioning) meta() PartitionMeta {
	return PartitionMeta{
		Strategy: int(p.strategy),
		Cells:    p.cells,
		Bounds:   p.bounds,
		MBR:      p.mbr,
		Gx:       p.gx,
		Gy:       p.gy,
	}
}

// runtime raises the serialized form back into the cell function.
func (m PartitionMeta) runtime() partitioning {
	return partitioning{
		strategy: Strategy(m.Strategy),
		cells:    m.Cells,
		bounds:   m.Bounds,
		mbr:      m.MBR,
		gx:       m.Gx,
		gy:       m.Gy,
	}
}

// buildPartitioning derives the cell function from the object distribution.
func buildPartitioning(objects []index.Object, shards int, strategy Strategy) (partitioning, error) {
	if shards < 1 {
		return partitioning{}, fmt.Errorf("shard: shard count %d must be at least 1", shards)
	}
	switch strategy {
	case FixedGrid:
		return gridPartitioning(objects, shards), nil
	case HilbertRuns:
		return hilbertPartitioning(objects, shards), nil
	default:
		return partitioning{}, fmt.Errorf("shard: unknown partition strategy %d", int(strategy))
	}
}

// hilbertPartitioning cuts the sorted object curve keys into equal-count
// runs and keeps the S−1 boundary keys; a point's cell is the number of
// boundaries at or below its key. Duplicate keys at a boundary all fall on
// the same side, so the split is deterministic (counts may then deviate
// slightly from |O|/S).
func hilbertPartitioning(objects []index.Object, shards int) partitioning {
	keys := make([]uint64, len(objects))
	for i, o := range objects {
		keys[i] = hilbertKey(o.Location)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	bounds := make([]uint64, 0, shards-1)
	for s := 1; s < shards; s++ {
		i := s * len(keys) / shards
		if i < len(keys) {
			bounds = append(bounds, keys[i])
		}
	}
	return partitioning{strategy: HilbertRuns, cells: shards, bounds: bounds}
}

// gridPartitioning factors S into Gx×Gy (Gx the largest divisor ≤ √S) over
// the object MBR. Points outside the MBR — features can be — clamp to the
// nearest border cell.
func gridPartitioning(objects []index.Object, shards int) partitioning {
	gx := 1
	for d := 1; d*d <= shards; d++ {
		if shards%d == 0 {
			gx = d
		}
	}
	gy := shards / gx
	mbr := geo.EmptyRect()
	for _, o := range objects {
		mbr = mbr.Extend(o.Location)
	}
	if mbr.IsEmpty() {
		mbr = geo.Rect{Min: geo.Point{X: 0, Y: 0}, Max: geo.Point{X: 1, Y: 1}}
	}
	return partitioning{strategy: FixedGrid, cells: shards, mbr: mbr, gx: gx, gy: gy}
}

// gridCellOf clamps a coordinate into one of n grid columns/rows. Points
// outside the MBR — features can be — clamp to the nearest border cell.
func gridCellOf(v, min, step float64, n int) int {
	if step <= 0 {
		return 0
	}
	i := int(math.Floor((v - min) / step))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}
