package stpq

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"stpq/internal/core"
	"stpq/internal/index"
	"stpq/internal/shard"
)

// dbManifest is the on-disk description of a saved DB.
type dbManifest struct {
	Version  int          `json:"version"`
	Config   Config       `json:"config"`
	Vocab    []string     `json:"vocab"`
	SetNames []string     `json:"setNames"`
	Objects  index.Meta   `json:"objects"`
	Features []index.Meta `json:"features"`
	// AppliedSeq is the WAL sequence number this snapshot is current
	// through: replay after Open starts at AppliedSeq+1.
	AppliedSeq uint64 `json:"appliedSeq,omitempty"`
	// FileGen, when non-zero, stamps the page-dump file names
	// ("objects.<FileGen hex>.pages"), so a checkpoint never overwrites
	// the files the previous manifest points at: the new files land
	// first, the manifest rename flips the generation atomically, and a
	// crash in between leaves the old checkpoint fully intact. Zero means
	// the legacy unstamped names.
	FileGen uint64 `json:"fileGen,omitempty"`
}

const manifestName = "stpq.json"

// Save writes the built DB to a directory: one page dump per index part
// plus a JSON manifest; a sharded DB adds its partitioning in a shard
// manifest. The directory is created if needed. The order makes a failed
// or interrupted Save harmless to what the directory held before: page
// dumps first, then the shard manifest, then stpq.json — the file Open
// starts from — each file synced and each manifest renamed into place.
// A DB with unmerged live-ingest mutations must Flush or Checkpoint first.
//
// Together with Open, Save makes index construction a one-off cost: a
// 100K-feature SRT-index reopens in milliseconds.
func (db *DB) Save(dir string) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if !db.built {
		return errors.New("stpq: Save before Build")
	}
	if db.pendingLocked() {
		return errors.New("stpq: unmerged mutations pending; call Flush or Checkpoint instead of Save")
	}
	// File generation 0: the unstamped page-dump names.
	return db.pinLocked(0).save(dir)
}

// pageFile returns the page-dump file name for an index under a file
// generation (0 = the unstamped name written by Save).
func pageFile(base string, gen uint64) string {
	if gen == 0 {
		return base + ".pages"
	}
	return fmt.Sprintf("%s.%016x.pages", base, gen)
}

// savePin is a fully merged generation captured under the DB locks — the
// engine, whose pages are immutable by construction (later partial merges
// write only copy-on-write overlays over them), plus what the manifest
// needs — so that save can stream it to disk with no DB locks held.
type savePin struct {
	eng      *core.Engine
	shards   *shard.Engine
	cfg      Config
	vocab    []string
	setNames []string
	seq      uint64
	fileGen  uint64
}

// pinLocked captures the current generation for a save under file
// generation fileGen. Callers hold db.mu and have merged every pending
// generation, so db.engine is the base.
func (db *DB) pinLocked(fileGen uint64) *savePin {
	return &savePin{
		eng:      db.engine,
		shards:   db.shards,
		cfg:      db.cfg,
		vocab:    db.vocab.Words(),
		setNames: slices.Clone(db.setNames),
		seq:      db.walSeq,
		fileGen:  fileGen,
	}
}

// save is the one writer of the on-disk layout. It writes the pinned
// generation to dir atomically: page dumps land first (under names stamped
// with the file generation, when there is one), the manifest is renamed
// into place last, and stamped page files no manifest references any more
// are garbage collected afterwards. A crash at any point leaves the
// directory opening to a consistent state (the previous one until the
// manifest rename, this one after).
func (p *savePin) save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("stpq: save: %w", err)
	}
	man := dbManifest{
		Version:    1,
		Config:     p.cfg,
		Vocab:      p.vocab,
		SetNames:   p.setNames,
		AppliedSeq: p.seq,
		FileGen:    p.fileGen,
	}
	keep := map[string]bool{}
	dump := func(base string, save func(io.Writer) (index.Meta, error)) (index.Meta, error) {
		name := pageFile(base, p.fileGen)
		keep[name] = true
		return index.SaveFile(filepath.Join(dir, name), save)
	}
	var err error
	if p.shards != nil {
		if err = p.shards.Save(dir); err != nil {
			return err
		}
	} else {
		if man.Objects, err = dump("objects", soleObjects(p.eng).Save); err != nil {
			return err
		}
		for i, g := range p.eng.FeatureGroups() {
			// A merged unsharded engine holds single-part groups.
			meta, err := dump(fmt.Sprintf("features_%d", i), g.Part(0).Save)
			if err != nil {
				return err
			}
			man.Features = append(man.Features, meta)
		}
	}
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("stpq: save manifest: %w", err)
	}
	if err := index.WriteFileAtomic(filepath.Join(dir, manifestName), data); err != nil {
		return fmt.Errorf("stpq: save manifest: %w", err)
	}
	if p.fileGen != 0 {
		gcPageFiles(dir, keep)
	}
	return nil
}

// gcPageFiles removes page dumps of superseded checkpoint generations.
// Best-effort: a leftover file wastes disk but harms nothing, so errors
// are ignored (the next checkpoint retries).
func gcPageFiles(dir string, keep map[string]bool) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.pages"))
	if err != nil {
		return
	}
	for _, path := range matches {
		if !keep[filepath.Base(path)] {
			os.Remove(path)
		}
	}
}

// Open loads a DB previously written by Save or Checkpoint, of either
// layout. The returned DB is ready to query, and is a DB like any other:
// the index pages it loaded are the data, so it can take writes (attach a
// WAL, or follow a leader through ApplyReplicated), merge them and Rebuild.
// Only Build must not be called on it again.
func Open(dir string) (*DB, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("stpq: open: %w", err)
	}
	var man dbManifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("stpq: open manifest: %w", err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("stpq: unsupported manifest version %d", man.Version)
	}
	db := New(man.Config)
	for _, w := range man.Vocab {
		db.vocab.Intern(w)
	}
	db.setNames = man.SetNames
	buffer := man.Config.BufferPages
	var (
		eng *core.Engine
		sh  *shard.Engine
	)
	if man.Config.ShardCount > 1 {
		sh, err = shard.Open(dir, shard.Options{
			Shards:   man.Config.ShardCount,
			Strategy: shard.Strategy(man.Config.ShardStrategy),
			Index: index.Options{
				Kind:        index.Kind(man.Config.IndexKind),
				VocabWidth:  db.vocab.Size(),
				PageSize:    man.Config.PageSize,
				BufferPages: buffer,
			},
			Core: coreOptions,
		})
		if err != nil {
			return nil, err
		}
		eng = sh.Core()
	} else {
		if len(man.Features) != len(man.SetNames) {
			return nil, fmt.Errorf("stpq: manifest has %d feature metas for %d set names",
				len(man.Features), len(man.SetNames))
		}
		oidx, err := index.OpenFile(filepath.Join(dir, pageFile("objects", man.FileGen)), man.Objects, buffer, index.OpenObjectIndex)
		if err != nil {
			return nil, err
		}
		fidxs := make([]*index.FeatureIndex, len(man.Features))
		for i, meta := range man.Features {
			fidxs[i], err = index.OpenFile(filepath.Join(dir, pageFile(fmt.Sprintf("features_%d", i), man.FileGen)), meta, buffer, index.OpenFeatureIndex)
			if err != nil {
				return nil, err
			}
		}
		if eng, err = core.NewEngine(oidx, fidxs, coreOptions); err != nil {
			return nil, err
		}
	}
	if n := len(eng.FeatureGroups()); n != len(man.SetNames) {
		return nil, fmt.Errorf("stpq: saved engine has %d feature groups for %d set names", n, len(man.SetNames))
	}
	db.installBaseLocked(eng, sh)
	db.publishLocked(eng)
	db.walSeq = man.AppliedSeq
	db.appliedSeq = man.AppliedSeq
	if man.Config.WALDir != "" {
		if _, err := db.AttachWAL(man.Config.WALDir); err != nil {
			return nil, err
		}
	}
	return db, nil
}
