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

// Meta is the out-of-page state of a feature or object index. PairBits is
// the width of the keyword-pair signature on the feature tree's inner
// slots (rtree.Config.PairBits), PairTokens whether it holds singleton
// tokens, and three bits a key (rtree.Config.PairTokens), and
// LevelBits the width of a keyword's level in their score tables
// (rtree.Config.LevelBits): a dump written before any of them existed has
// none, so it reopens with the layout and the signature scheme it was
// written in, and its queries price nodes with the bound they had then. A
// dump without PairTokens must be probed with one bit a pair and no
// tokens: read as holding tokens, its signatures would prove absent a
// token no feature was asked to set, and prices would fall below scores.
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
	return Meta{
		Tree:       x.tree.Meta(),
		Kind:       x.kind,
		VocabWidth: x.opts.VocabWidth,
		PageSize:   x.tree.Config().PageSize,
		WithScore:  true,
		PairBits:   x.tree.Config().PairBits,
		LevelBits:  x.tree.Config().LevelBits,
		PairTokens: x.tree.Config().PairTokens,
	}, nil
}

// OpenFeatureIndex reconstructs a feature index from a page dump and its
// Meta.
func OpenFeatureIndex(r io.Reader, meta Meta, bufferPages int) (*FeatureIndex, error) {
	disk, err := storage.LoadMemDisk(r)
	if err != nil {
		return nil, err
	}
	tree, err := rtree.Open(rtree.Config{
		PageSize:     meta.PageSize,
		KeywordWidth: meta.VocabWidth,
		WithScore:    true,
		PairBits:     meta.PairBits,
		LevelBits:    meta.LevelBits,
		PairTokens:   meta.PairTokens,
		BufferPages:  bufferPages,
		Disk:         disk,
	}, meta.Tree)
	if err != nil {
		return nil, fmt.Errorf("index: open feature index: %w", err)
	}
	opts := Options{Kind: meta.Kind, VocabWidth: meta.VocabWidth, PageSize: meta.PageSize, BufferPages: bufferPages}
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
