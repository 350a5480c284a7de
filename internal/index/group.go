package index

// group.go implements FeatureGroup: one logical feature set F_i stored as
// a forest of FeatureIndex parts. An unsharded DB uses one part per group;
// a sharded one (internal/shard) slices each feature set spatially into one
// part per shard cell; pending writes add one part per unmerged layer.
// Query algorithms that traverse a
// group seed their priority queues with every part root, which makes the
// multi-part traversal emit exactly the same feature sequence as a single
// index over the union — scores and bounds are per-entry properties, and
// best-first order is preserved across trees by the shared heap.

import (
	"fmt"

	"stpq/internal/obs"
	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// FeatureGroup is one logical feature set as an ordered forest of parts.
// All parts share their construction kind.
type FeatureGroup struct {
	parts []*FeatureIndex
}

// NewFeatureGroup assembles a group from one or more homogeneous parts.
func NewFeatureGroup(parts ...*FeatureIndex) (*FeatureGroup, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("index: feature group needs at least one part")
	}
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("index: feature group part %d is nil", i)
		}
		if p.kind != parts[0].kind {
			return nil, fmt.Errorf("index: feature group part %d differs in kind", i)
		}
	}
	return &FeatureGroup{parts: parts}, nil
}

// GroupEach wraps each index in its own single-part group — the lowering
// used by the unsharded engine.
func GroupEach(idxs []*FeatureIndex) ([]*FeatureGroup, error) {
	out := make([]*FeatureGroup, len(idxs))
	for i, idx := range idxs {
		g, err := NewFeatureGroup(idx)
		if err != nil {
			return nil, fmt.Errorf("index: feature set %d: %w", i, err)
		}
		out[i] = g
	}
	return out, nil
}

// Parts returns the group's parts in partition order.
func (g *FeatureGroup) Parts() []*FeatureIndex { return g.parts }

// Part returns one part by position.
func (g *FeatureGroup) Part(i int) *FeatureIndex { return g.parts[i] }

// Kind returns the construction kind shared by all parts.
func (g *FeatureGroup) Kind() Kind { return g.parts[0].kind }

// Len returns the total number of indexed features across parts.
func (g *FeatureGroup) Len() int {
	n := 0
	for _, p := range g.parts {
		n += p.Len()
	}
	return n
}

// All returns every feature of the group, concatenated in part order.
func (g *FeatureGroup) All() ([]rtree.Entry, error) {
	var out []rtree.Entry
	for _, p := range g.parts {
		all, err := p.All()
		if err != nil {
			return nil, err
		}
		out = append(out, all...)
	}
	return out, nil
}

// Session returns a read view of the group whose page accesses are charged
// to acct (see FeatureIndex.Session).
func (g *FeatureGroup) Session(acct *storage.Stats) *FeatureGroup {
	parts := make([]*FeatureIndex, len(g.parts))
	for i, p := range g.parts {
		parts[i] = p.Session(acct)
	}
	return &FeatureGroup{parts: parts}
}

// Stats sums the I/O counters of all parts.
func (g *FeatureGroup) Stats() storage.Stats {
	var s storage.Stats
	for _, p := range g.parts {
		s.Add(p.Stats())
	}
	return s
}

// ResetStats zeroes the I/O counters of all parts.
func (g *FeatureGroup) ResetStats() {
	for _, p := range g.parts {
		p.ResetStats()
	}
}

// AttachMetrics registers every part's buffer pool under the given pool
// name; multi-part groups get a per-part suffix so shard pools stay
// distinguishable in the registry.
func (g *FeatureGroup) AttachMetrics(r *obs.Registry, pool string) {
	if len(g.parts) == 1 {
		g.parts[0].AttachMetrics(r, pool)
		return
	}
	for i, p := range g.parts {
		p.AttachMetrics(r, fmt.Sprintf("%s_part%d", pool, i))
	}
}
