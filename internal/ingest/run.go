package ingest

// run.go implements generational runs: when the delta reaches the flush
// threshold under background compaction, it is sealed into an immutable
// Run instead of being merged synchronously. Queries run over the base and
// the net effect of runs + active delta (see Net) as index parts of one
// engine; the compactor folds runs into the base off the write path. Runs are volatile by design —
// durability comes from the WAL, and recovery replays records into fresh
// runs — so sealing is O(1): the run steals the delta's maps.

import "stpq/internal/index"

// LayerSet is one feature set's slice of a layer: the upserted features
// plus the tombstones hiding older versions.
type LayerSet struct {
	// Feats holds the upserted features by id.
	Feats map[int64]index.Feature
	// Dead tombstones feature ids of older generations.
	Dead map[int64]struct{}
}

// Layer is one generation of unmerged mutations — a sealed run or the
// active delta. Layers fold oldest to newest (CollectNet): each layer's
// tombstones hide matching ids in every older layer and in the base.
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
}

// Net is the net effect of a stack of pending layers: the newest write
// per id wins, upsert-over-delete and delete-over-upsert folds applied.
// It is the one interpretation of pending layers: a published generation
// hides Dead* in the base and shows Ups* beside it, a merge deletes Dead*
// from the base and inserts Ups*. Its maps are its own, never a layer's.
type Net struct {
	DeadObj  map[int64]struct{}
	UpsObj   map[int64]index.Object
	DeadFeat []map[int64]struct{}
	UpsFeat  []map[int64]index.Feature
	// Count is the number of net index operations a merge will perform,
	// feeding the drift accounting.
	Count int
}

// CollectNet folds the layers (oldest first) into their net effect.
func CollectNet(layers []*Layer, numSets int) *Net {
	net := &Net{
		DeadObj:  make(map[int64]struct{}),
		UpsObj:   make(map[int64]index.Object),
		DeadFeat: make([]map[int64]struct{}, numSets),
		UpsFeat:  make([]map[int64]index.Feature, numSets),
	}
	for i := 0; i < numSets; i++ {
		net.DeadFeat[i] = make(map[int64]struct{})
		net.UpsFeat[i] = make(map[int64]index.Feature)
	}
	for _, l := range layers {
		// Tombstones first: an upsert records both a tombstone (hiding older
		// generations) and the new value, so within one layer the upsert must
		// survive its own tombstone.
		for id := range l.DeadObjects {
			net.DeadObj[id] = struct{}{}
			delete(net.UpsObj, id)
		}
		for id, o := range l.Objects {
			net.UpsObj[id] = o
		}
		for i := range l.Sets {
			for id := range l.Sets[i].Dead {
				net.DeadFeat[i][id] = struct{}{}
				delete(net.UpsFeat[i], id)
			}
			for id, f := range l.Sets[i].Feats {
				net.UpsFeat[i][id] = f
			}
		}
	}
	net.Count = len(net.DeadObj) + len(net.UpsObj)
	for i := 0; i < numSets; i++ {
		net.Count += len(net.DeadFeat[i]) + len(net.UpsFeat[i])
	}
	return net
}
