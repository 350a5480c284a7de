package shard

// persist.go makes sharded layouts durable: Save dumps every object part
// and every feature part as page files plus a JSON manifest carrying the
// partitioning (Hilbert boundary keys or grid geometry) and per-shard
// metadata; Open reverses it. The partitioning round-trips
// exactly — it is pure data (see partition.go) — so an opened engine
// assigns any future point to the same cell as the engine that saved it.

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"stpq/internal/core"
	"stpq/internal/geo"
	"stpq/internal/index"
)

// ManifestName is the sharded-engine manifest file inside the save
// directory, distinct from the top-level DB manifest.
const ManifestName = "shards.json"

// shardMeta describes one persisted object part.
type shardMeta struct {
	Cell    int        `json:"cell"`
	Count   int        `json:"count"`
	Rect    geo.Rect   `json:"rect"`
	Objects index.Meta `json:"objects"`
}

// manifest is the on-disk description of a sharded engine. The partition
// section is PartitionMeta (partition.go).
type manifest struct {
	Version   int           `json:"version"`
	Total     int           `json:"total"`
	Partition PartitionMeta `json:"partition"`
	Shards    []shardMeta   `json:"shards"`
	// Features holds one meta per part, per feature set, in group order.
	Features [][]index.Meta `json:"features"`
}

// Save writes the layout into dir (created if needed): one page dump per
// object part (objects_shardNN.pages), one per feature part
// (features_S_partNN.pages), and then — only once every dump is on disk —
// the shard manifest, renamed into place.
func (e *Engine) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	man := manifest{
		Version:   1,
		Total:     e.eng.NumObjects(),
		Partition: e.part.meta(),
	}
	for id, part := range e.eng.ObjectParts() {
		meta, err := index.SaveFile(filepath.Join(dir, fmt.Sprintf("objects_shard%02d.pages", id)), part.Save)
		if err != nil {
			return err
		}
		s := e.shards[id]
		man.Shards = append(man.Shards, shardMeta{Cell: s.cell, Count: s.count, Rect: s.rect, Objects: meta})
	}
	for i, g := range e.eng.FeatureGroups() {
		metas := make([]index.Meta, len(g.Parts()))
		for j, p := range g.Parts() {
			meta, err := index.SaveFile(filepath.Join(dir, fmt.Sprintf("features_%d_part%02d.pages", i, j)), p.Save)
			if err != nil {
				return err
			}
			metas[j] = meta
		}
		man.Features = append(man.Features, metas)
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: save manifest: %w", err)
	}
	if err := index.WriteFileAtomic(filepath.Join(dir, ManifestName), data); err != nil {
		return fmt.Errorf("shard: save manifest: %w", err)
	}
	return nil
}

// Open loads a layout previously written by Save. opts supplies the
// runtime knobs (buffer pages, core options); the structural options
// (partitioning, index geometry) come from the manifest and page dumps.
func Open(dir string, opts Options) (*Engine, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("shard: open: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("shard: open manifest: %w", err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("shard: unsupported shard manifest version %d", man.Version)
	}
	if len(man.Shards) == 0 {
		return nil, errors.New("shard: manifest has no shards")
	}
	buffer := opts.Index.BufferPages

	groups := make([]*index.FeatureGroup, len(man.Features))
	for i, metas := range man.Features {
		parts := make([]*index.FeatureIndex, len(metas))
		for j, meta := range metas {
			parts[j], err = index.OpenFile(filepath.Join(dir, fmt.Sprintf("features_%d_part%02d.pages", i, j)), meta, buffer, index.OpenFeatureIndex)
			if err != nil {
				return nil, err
			}
		}
		g, err := index.NewFeatureGroup(parts...)
		if err != nil {
			return nil, err
		}
		groups[i] = g
	}

	e := &Engine{part: man.Partition.runtime()}
	oparts := make([]*index.ObjectIndex, len(man.Shards))
	for id, sm := range man.Shards {
		oparts[id], err = index.OpenFile(filepath.Join(dir, fmt.Sprintf("objects_shard%02d.pages", id)), sm.Objects, buffer, index.OpenObjectIndex)
		if err != nil {
			return nil, err
		}
		e.shards = append(e.shards, cellShard{cell: sm.Cell, rect: sm.Rect, count: sm.Count})
	}
	e.eng, err = core.NewEngineOverParts(oparts, len(oparts), groups, opts.Core)
	if err != nil {
		return nil, err
	}
	return e, nil
}
