package index

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// Persistence: a built index is saved as its page dump plus a small Meta
// record.

// Meta is the out-of-page state of a feature or object index. PairBits,
// LevelBits and PairTokens record a feature tree's inner-slot layout as
// older versions wrote it, so that an older dump is known as one. Save
// writes the one layout rtree keeps at every keyword width: LevelBits
// rtree.ScoreLevelBits, PairBits rtree.PairSigBits and PairTokens set. A
// Meta without PairTokens was written before the signatures held tokens,
// and one without LevelBits above rtree.MaxLevelWidth keywords, where
// slots kept e.s and e.W, before every slot kept a score table: such a
// dump is read for its items, which OpenFeatureIndex bulk-loads afresh in
// the current layout.
type Meta struct {
	Tree       rtree.Meta `json:"tree"`
	Kind       Kind       `json:"kind"`
	VocabWidth int        `json:"vocabWidth"`
	PageSize   int        `json:"pageSize"`
	WithScore  bool       `json:"withScore"`
	PairBits   int        `json:"pairBits,omitempty"`
	LevelBits  int        `json:"levelBits,omitempty"`
	PairTokens bool       `json:"pairTokens,omitempty"`
}

// Save writes the index's pages to w and returns its Meta.
func (x *FeatureIndex) Save(w io.Writer) (Meta, error) {
	if err := storage.DumpDisk(x.tree.Config().Disk, w); err != nil {
		return Meta{}, err
	}
	meta := Meta{
		Tree:       x.tree.Meta(),
		Kind:       x.kind,
		VocabWidth: x.opts.VocabWidth,
		PageSize:   x.tree.Config().PageSize,
		WithScore:  true,
		PairBits:   rtree.PairSigBits,
		LevelBits:  rtree.ScoreLevelBits,
		PairTokens: true,
	}
	return meta, nil
}

// oldLayout reports whether m records an inner-slot layout older than the
// current one — without tokens or without score tables — and if so whether
// its slots held a pair signature and a score table. A layout no version
// wrote is an error.
func (m Meta) oldLayout() (old, pairs, levels bool, err error) {
	pairs, levels = m.PairBits == rtree.PairSigBits, m.LevelBits == rtree.ScoreLevelBits
	if m.PairBits != 0 && !pairs || m.LevelBits != 0 && !levels || (levels || m.PairTokens) && !pairs ||
		!m.WithScore || m.VocabWidth <= 0 {
		return false, false, false, fmt.Errorf("index: no version wrote a feature tree of %d keywords with scores %t, pairBits %d, levelBits %d and pairTokens %t",
			m.VocabWidth, m.WithScore, m.PairBits, m.LevelBits, m.PairTokens)
	}
	return !m.PairTokens || !levels, pairs, levels, nil
}

// OpenFeatureIndex reconstructs a feature index from a page dump and its
// Meta. A dump in an older layout is rebuilt: its items are read off its
// leaves (rtree.OldItems) and bulk-loaded as BuildFeatureIndex does, so the
// index opens in the current layout and Saves in it.
func OpenFeatureIndex(r io.Reader, meta Meta, bufferPages int) (*FeatureIndex, error) {
	old, pairs, levels, err := meta.oldLayout()
	if err != nil {
		return nil, err
	}
	disk, err := storage.LoadMemDisk(r)
	if err != nil {
		return nil, err
	}
	cfg := rtree.Config{
		PageSize:     meta.PageSize,
		KeywordWidth: meta.VocabWidth,
		WithScore:    true,
		BufferPages:  bufferPages,
		Disk:         disk,
	}
	opts := Options{Kind: meta.Kind, VocabWidth: meta.VocabWidth, PageSize: meta.PageSize, BufferPages: bufferPages}
	if old {
		items, err := rtree.OldItems(cfg, meta.Tree, pairs, levels)
		if err != nil {
			return nil, fmt.Errorf("index: open feature index: %w", err)
		}
		features := make([]Feature, len(items))
		for i, it := range items {
			features[i] = Feature{ID: it.ID, Location: it.Location, Score: it.Score, Keywords: it.Keywords}
		}
		return BuildFeatureIndex(features, opts)
	}
	tree, err := rtree.Open(cfg, meta.Tree)
	if err != nil {
		return nil, fmt.Errorf("index: open feature index: %w", err)
	}
	return newFeatureIndex(tree, meta.Kind, opts.withDefaults()), nil
}

// Save writes the object index's pages to w and returns its Meta.
func (x *ObjectIndex) Save(w io.Writer) (Meta, error) {
	if err := storage.DumpDisk(x.tree.Config().Disk, w); err != nil {
		return Meta{}, err
	}
	return Meta{Tree: x.tree.Meta(), PageSize: x.tree.Config().PageSize}, nil
}

// OpenObjectIndex reconstructs an object index from a page dump and Meta.
func OpenObjectIndex(r io.Reader, meta Meta, bufferPages int) (*ObjectIndex, error) {
	disk, err := storage.LoadMemDisk(r)
	if err != nil {
		return nil, err
	}
	tree, err := rtree.Open(rtree.Config{
		PageSize:    meta.PageSize,
		BufferPages: bufferPages,
		Disk:        disk,
	}, meta.Tree)
	if err != nil {
		return nil, fmt.Errorf("index: open object index: %w", err)
	}
	return &ObjectIndex{tree: tree}, nil
}

// SaveFile dumps one index's pages to a file through its Save method and
// syncs the file: a manifest that names it may be renamed into place (and
// log segments it supersedes unlinked) as soon as this returns. The
// directory entry becomes durable with the manifest's (WriteFileAtomic).
func SaveFile(path string, save func(w io.Writer) (Meta, error)) (Meta, error) {
	f, err := os.Create(path)
	if err != nil {
		return Meta{}, fmt.Errorf("index: save %s: %w", path, err)
	}
	meta, err := save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return Meta{}, fmt.Errorf("index: save %s: %w", path, err)
	}
	return meta, nil
}

// OpenFile loads one index dump back through OpenFeatureIndex or
// OpenObjectIndex.
func OpenFile[T any](path string, meta Meta, buffer int, open func(r io.Reader, meta Meta, buffer int) (T, error)) (T, error) {
	var zero T
	f, err := os.Open(path)
	if err != nil {
		return zero, fmt.Errorf("index: open %s: %w", path, err)
	}
	defer f.Close()
	idx, err := open(f, meta, buffer)
	if err != nil {
		return zero, fmt.Errorf("index: open %s: %w", path, err)
	}
	return idx, nil
}

// WriteFileAtomic writes data to path via a synced temp file, a rename and
// a sync of the directory, so readers (and crash recovery) see either the
// old contents or the new, never a torn write, and what the caller does
// next — trimming a log, say — cannot outlive the file it relies on.
// Manifests go through it, after the page dumps they point at.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return storage.SyncDir(filepath.Dir(path))
}
