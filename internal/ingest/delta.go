package ingest

import (
	"bytes"
	"fmt"

	"stpq/internal/index"
)

// Delta is the in-memory layer that absorbs mutations between merges. Data
// objects live in plain maps (every publish bulk-loads the pending ones
// into one small object part — the delta is small by construction, bounded
// by the auto-flush threshold). Feature upserts are additionally routed
// through a real per-set FeatureIndex via rtree.Insert, so every live
// feature insert exercises the paper's decode→OR→encode node-update rule
// on its way in.
//
// Ids referring to the base generation are never mutated in place: the
// delta records them as tombstones and the published base parts hide them,
// so the base indexes stay immutable and snapshot isolation is free.
type Delta struct {
	opts index.Options

	// Layer is the delta's content, mutated in place by every apply: its
	// maps and per-set indexes are live, so it may only be read under the
	// lock that serializes writers, and nothing published may keep them
	// (CloneIndex copies an index out).
	Layer

	ops int
}

// NewDelta creates an empty delta whose feature indexes are built with the
// given options — the same kind and vocabulary width as the base indexes,
// so delta parts compose with tombstoned base parts into one FeatureGroup.
func NewDelta(opts index.Options, numSets int) (*Delta, error) {
	d := &Delta{opts: opts, Layer: Layer{
		Objects:     make(map[int64]index.Object),
		DeadObjects: make(map[int64]struct{}),
		Sets:        make([]LayerSet, numSets),
	}}
	for i := range d.Sets {
		idx, err := index.BuildFeatureIndex(nil, opts)
		if err != nil {
			return nil, fmt.Errorf("ingest: delta set %d: %w", i, err)
		}
		d.Sets[i] = LayerSet{
			Idx:   idx,
			Feats: make(map[int64]index.Feature),
			Dead:  make(map[int64]struct{}),
		}
	}
	return d, nil
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
func (d *Delta) UpsertFeature(i int, f index.Feature) error {
	s := &d.Sets[i]
	if old, ok := s.Feats[f.ID]; ok {
		if _, err := s.Idx.Delete(old.ID, old.Location); err != nil {
			return err
		}
	}
	if err := s.Idx.Insert(f); err != nil {
		return err
	}
	s.Dead[f.ID] = struct{}{}
	s.Feats[f.ID] = f
	d.ops++
	return nil
}

// DeleteFeature records a feature delete in set i.
func (d *Delta) DeleteFeature(i int, id int64) error {
	s := &d.Sets[i]
	if old, ok := s.Feats[id]; ok {
		if _, err := s.Idx.Delete(old.ID, old.Location); err != nil {
			return err
		}
		delete(s.Feats, id)
	}
	s.Dead[id] = struct{}{}
	d.ops++
	return nil
}

// CloneIndex snapshots the delta feature index of set i for publication:
// the published engine must hold an immutable copy because the master keeps
// mutating under later Applies. The clone shares nothing with the master
// (page dump round trip), so readers never see a half-applied batch.
func (d *Delta) CloneIndex(i int) (*index.FeatureIndex, error) {
	var buf bytes.Buffer
	meta, err := d.Sets[i].Idx.Save(&buf)
	if err != nil {
		return nil, err
	}
	return index.OpenFeatureIndex(&buf, meta, d.opts.BufferPages)
}

// Seal converts the delta into an immutable run covering WAL records
// through seq. The run takes ownership of the delta's maps and per-set
// indexes — the delta must not be used afterwards (the caller drops it),
// which is what makes sealing O(1) instead of O(delta).
func (d *Delta) Seal(seq uint64) *Run {
	r := &Run{Layer: d.Layer, Ops: d.ops, Seq: seq}
	d.Layer = Layer{}
	return r
}
