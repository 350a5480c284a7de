package ingest

// run.go implements generational runs: when the delta reaches the flush
// threshold under background compaction, it is sealed into an immutable
// Run instead of being merged synchronously. Queries run over base + runs
// + active delta as index parts of one engine; the compactor folds runs into the base off the write
// path. Runs are volatile by design — durability comes from the WAL, and
// recovery replays records into fresh runs — so sealing is O(feature
// sets), not O(delta): the run steals the delta's maps and indexes.

import (
	"cmp"
	"slices"

	"stpq/internal/index"
)

// LayerSet is one feature set's slice of a layer: the upserted features
// (and the index over them) plus the tombstones hiding older versions.
type LayerSet struct {
	// Idx indexes the layer's upserted features; nil when the layer has
	// none in this set. Immutable once published.
	Idx *index.FeatureIndex
	// Feats holds the upserted features by id.
	Feats map[int64]index.Feature
	// Dead tombstones feature ids of older generations.
	Dead map[int64]struct{}
}

// Layer is one generation of unmerged mutations — a sealed run or a
// snapshot of the active delta. A published generation stacks layers
// oldest to newest: each layer's tombstones hide matching ids in every older layer
// and in the base.
type Layer struct {
	// Objects holds upserted data objects by id.
	Objects map[int64]index.Object
	// DeadObjects tombstones object ids of older generations.
	DeadObjects map[int64]struct{}
	// Sets holds one slice per feature set, in set order.
	Sets []LayerSet
}

// Run is a sealed, immutable layer: nothing mutates it after Seal, so
// published generations and the compactor share it without copying.
type Run struct {
	Layer
	// Ops is the number of mutations the run absorbed.
	Ops int
	// Seq is the WAL sequence number the run is current through.
	Seq uint64
}

// Seal converts the delta into an immutable run covering WAL records
// through seq. The run takes ownership of the delta's maps and per-set
// indexes — the delta must not be used afterwards (the caller drops it),
// which is what makes sealing O(feature sets) instead of O(delta).
func (d *Delta) Seal(seq uint64) *Run {
	r := &Run{Ops: d.ops, Seq: seq}
	r.Objects = d.Objects
	r.DeadObjects = d.DeadObjects
	r.Sets = make([]LayerSet, len(d.Sets))
	for i, s := range d.Sets {
		ls := LayerSet{Feats: s.Feats, Dead: s.Dead}
		if len(s.Feats) > 0 {
			ls.Idx = s.idx
		}
		r.Sets[i] = ls
	}
	d.Objects, d.DeadObjects, d.Sets = nil, nil, nil
	return r
}

// Snapshot captures the active delta as a layer for publication.
// The delta keeps mutating under later applies, so the maps are copied
// and the per-set indexes cloned; the returned layer is immutable.
func (d *Delta) Snapshot() (*Layer, error) {
	l := &Layer{
		Objects:     copyObjects(d.Objects),
		DeadObjects: copyIDSet(d.DeadObjects),
		Sets:        make([]LayerSet, len(d.Sets)),
	}
	for i, s := range d.Sets {
		ls := LayerSet{Feats: copyFeatures(s.Feats), Dead: copyIDSet(s.Dead)}
		if len(s.Feats) > 0 {
			idx, err := d.CloneIndex(i)
			if err != nil {
				return nil, err
			}
			ls.Idx = idx
		}
		l.Sets[i] = ls
	}
	return l, nil
}

// copyIDSet copies an id set (nil in, nil out).
func copyIDSet(in map[int64]struct{}) map[int64]struct{} {
	if in == nil {
		return nil
	}
	out := make(map[int64]struct{}, len(in))
	for id := range in {
		out[id] = struct{}{}
	}
	return out
}

// copyObjects copies an object map.
func copyObjects(in map[int64]index.Object) map[int64]index.Object {
	out := make(map[int64]index.Object, len(in))
	for id, o := range in {
		out[id] = o
	}
	return out
}

// copyFeatures copies a feature map.
func copyFeatures(in map[int64]index.Feature) map[int64]index.Feature {
	out := make(map[int64]index.Feature, len(in))
	for id, f := range in {
		out[id] = f
	}
	return out
}

// UnionDead returns the union of the layers' object tombstones.
func UnionDead(layers []*Layer) map[int64]struct{} {
	out := make(map[int64]struct{})
	for _, l := range layers {
		for id := range l.DeadObjects {
			out[id] = struct{}{}
		}
	}
	return out
}

// UnionDeadSet returns the union of the layers' tombstones for feature
// set i.
func UnionDeadSet(layers []*Layer, i int) map[int64]struct{} {
	out := make(map[int64]struct{})
	for _, l := range layers {
		for id := range l.Sets[i].Dead {
			out[id] = struct{}{}
		}
	}
	return out
}

// FoldObjects folds the layers' object upserts oldest to newest — newer
// tombstones delete older upserts, newer upserts win — and returns the
// survivors in ascending id order: the deterministic bulk-load input of
// the object part a published generation keeps beside the base.
func FoldObjects(layers []*Layer) []index.Object {
	byID := make(map[int64]index.Object)
	for _, l := range layers {
		for id := range l.DeadObjects {
			delete(byID, id)
		}
		for id, o := range l.Objects {
			byID[id] = o
		}
	}
	out := make([]index.Object, 0, len(byID))
	for _, o := range byID {
		out = append(out, o)
	}
	slices.SortFunc(out, func(a, b index.Object) int { return cmp.Compare(a.ID, b.ID) })
	return out
}
