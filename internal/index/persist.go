package index

import (
	"errors"
	"fmt"
	"io"
	"os"

	"stpq/internal/approx"
	"stpq/internal/rtree"
	"stpq/internal/storage"
)

// Persistence: a built index is saved as its page dump plus a small Meta
// record. Signature-mode indexes are not yet persistable (their record
// file and ordinal directory would need a second dump) and report an
// error.

// Meta is the out-of-page state of a feature or object index.
type Meta struct {
	Tree       rtree.Meta `json:"tree"`
	Kind       Kind       `json:"kind"`
	VocabWidth int        `json:"vocabWidth"`
	PageSize   int        `json:"pageSize"`
	WithScore  bool       `json:"withScore"`
}

// ErrSignaturePersist reports that signature-mode indexes cannot be saved.
var ErrSignaturePersist = errors.New("index: signature-mode indexes cannot be persisted")

// Save writes the index's pages to w and returns its Meta.
func (x *FeatureIndex) Save(w io.Writer) (Meta, error) {
	if x.sigBits > 0 {
		return Meta{}, ErrSignaturePersist
	}
	if err := storage.DumpDisk(x.tree.Config().Disk, w); err != nil {
		return Meta{}, err
	}
	return Meta{
		Tree:       x.tree.Meta(),
		Kind:       x.kind,
		VocabWidth: x.opts.VocabWidth,
		PageSize:   x.tree.Config().PageSize,
		WithScore:  true,
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
		BufferPages:  bufferPages,
		Disk:         disk,
	}, meta.Tree)
	if err != nil {
		return nil, fmt.Errorf("index: open feature index: %w", err)
	}
	return &FeatureIndex{
		tree:   tree,
		kind:   meta.Kind,
		opts:   Options{Kind: meta.Kind, VocabWidth: meta.VocabWidth, PageSize: meta.PageSize, BufferPages: bufferPages},
		sketch: approx.NewHolder(),
	}, nil
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

// SaveFile dumps one index's pages to a file through its Save method.
func SaveFile(path string, save func(w io.Writer) (Meta, error)) (Meta, error) {
	f, err := os.Create(path)
	if err != nil {
		return Meta{}, fmt.Errorf("index: save %s: %w", path, err)
	}
	meta, err := save(f)
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

// WriteFileAtomic writes data to path via a temp file and rename, so
// readers (and crash recovery) see either the old contents or the new,
// never a torn write. Manifests go through it, after the page dumps they
// point at.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
