package ingest

import "stpq/internal/index"

// Delta is the in-memory layer that absorbs mutations between merges:
// plain maps of the upserted objects and features and of the ids they
// tombstone. Every publish bulk-loads the pending upserts into one small
// index part per side (the delta is small by construction, bounded by the
// auto-flush threshold), so the delta itself holds no index.
//
// Ids referring to the base generation are never mutated in place: the
// delta records them as tombstones and the published base parts hide them,
// so the base indexes stay immutable and snapshot isolation is free.
type Delta struct {
	// Layer is the delta's content, mutated in place by every apply: its
	// maps are live, so it may only be read under the lock that serializes
	// writers, and nothing published may keep them.
	Layer

	ops int
}

// NewDelta creates an empty delta over numSets feature sets.
func NewDelta(numSets int) *Delta {
	d := &Delta{Layer: Layer{
		Objects:     make(map[int64]index.Object),
		DeadObjects: make(map[int64]struct{}),
		Sets:        make([]LayerSet, numSets),
	}}
	for i := range d.Sets {
		d.Sets[i] = LayerSet{
			Feats: make(map[int64]index.Feature),
			Dead:  make(map[int64]struct{}),
		}
	}
	return d
}

// Ops returns the number of mutations applied since the delta was created
// (the auto-flush trigger).
func (d *Delta) Ops() int { return d.ops }

// Empty reports whether the delta holds no effective mutations.
func (d *Delta) Empty() bool { return d.ops == 0 }

// UpsertObject records an object insert or overwrite.
func (d *Delta) UpsertObject(o index.Object) {
	d.DeadObjects[o.ID] = struct{}{} // hide any base copy
	d.Objects[o.ID] = o
	d.ops++
}

// DeleteObject records an object delete.
func (d *Delta) DeleteObject(id int64) {
	d.DeadObjects[id] = struct{}{}
	delete(d.Objects, id)
	d.ops++
}

// UpsertFeature records a feature insert or overwrite in set i.
func (d *Delta) UpsertFeature(i int, f index.Feature) {
	d.Sets[i].Dead[f.ID] = struct{}{}
	d.Sets[i].Feats[f.ID] = f
	d.ops++
}

// DeleteFeature records a feature delete in set i.
func (d *Delta) DeleteFeature(i int, id int64) {
	d.Sets[i].Dead[id] = struct{}{}
	delete(d.Sets[i].Feats, id)
	d.ops++
}

// Seal converts the delta into an immutable run. The run takes ownership
// of the delta's maps — the delta must not be used afterwards (the caller
// drops it), which is what makes sealing O(1) instead of O(delta).
func (d *Delta) Seal() *Run {
	r := &Run{Layer: d.Layer, Ops: d.ops}
	d.Layer = Layer{}
	return r
}
