package stpq

// snapshot.go implements the serving-side view of a DB: an immutable
// Snapshot handle that queries run against, and Rebuild, which constructs
// a fresh engine and swaps it in without disturbing in-flight queries.
//
// A Snapshot pins the engine, vocabulary and feature-set names that were
// current when it was taken. Rebuild replaces those pointers atomically
// (under the DB lock) and bumps the generation counter; queries running
// against an older snapshot finish on the old engine, whose indexes and
// page caches stay valid. The generation number is how the serving layer
// (internal/serve) invalidates its result cache on rebuild.

import (
	"fmt"

	"stpq/internal/core"
	"stpq/internal/kwset"
	"stpq/internal/shard"
)

// Snapshot is an immutable handle onto a built DB's indexes. It is safe
// for concurrent use: any number of goroutines may call TopK on the same
// Snapshot, and a Snapshot keeps working after the DB is rebuilt.
type Snapshot struct {
	// db supplies what outlives generations and is never reassigned after
	// New: telemetry, the metrics registry, the tracing toggle, the index
	// kind.
	db     *DB
	engine *core.Engine
	shards *shard.Engine // nil when unsharded
	vocab  *kwset.Vocabulary
	names  []string
	gen    uint64
}

// Snapshot returns a handle onto the current indexes. It fails with
// ErrNotBuilt before Build.
func (db *DB) Snapshot() (*Snapshot, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if !db.built {
		return nil, fmt.Errorf("%w: Snapshot before Build", ErrNotBuilt)
	}
	return &Snapshot{db: db, engine: db.engine, shards: db.shards, vocab: db.vocab, names: db.setNames, gen: db.gen}, nil
}

// Generation returns the build generation the snapshot was taken at: 1
// after the first Build, incremented by every Rebuild. Serving layers use
// it to detect that cached results belong to a superseded index.
func (s *Snapshot) Generation() uint64 { return s.gen }

// FeatureSetNames returns the feature-set names of this snapshot in
// registration order.
func (s *Snapshot) FeatureSetNames() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// NumObjects returns the number of indexed data objects.
func (s *Snapshot) NumObjects() int { return s.engine.NumObjects() }

// NumShards returns the number of spatial cells the snapshot's data
// objects are laid out in (1 on an unsharded DB).
func (s *Snapshot) NumShards() int {
	if s.shards != nil {
		return s.shards.NumShards()
	}
	return 1
}

// NumFeatures returns the number of features per set, keyed by set name.
func (s *Snapshot) NumFeatures() map[string]int {
	out := make(map[string]int, len(s.names))
	for i, name := range s.names {
		out[name] = s.engine.FeatureGroups()[i].Len()
	}
	return out
}

// TopK runs the query against the snapshot and returns the k best objects
// with execution statistics. Safe for concurrent use.
func (s *Snapshot) TopK(q Query) ([]Result, Stats, error) {
	p, err := s.Prepare(q)
	if err != nil {
		return nil, Stats{}, err
	}
	return p.Run()
}

// UpperBound returns an admissible upper bound on the best score any
// object of this snapshot can reach under the query: no indexed object
// scores strictly above it. A cluster node answers the coordinator's
// scatter probe with it; the coordinator orders and prunes its waves by
// it.
func (s *Snapshot) UpperBound(q Query) (float64, error) {
	p, err := s.Prepare(q)
	if err != nil {
		return 0, err
	}
	return p.UpperBound()
}

// Score computes the exact spatio-textual preference score of an arbitrary
// location under the query, by brute force. Intended for debugging and
// verification, not for production use.
func (s *Snapshot) Score(q Query, x, y float64) (float64, error) {
	p, err := s.Prepare(q)
	if err != nil {
		return 0, err
	}
	return p.Score(x, y)
}

// Explain is DB.Explain against a pinned snapshot.
func (s *Snapshot) Explain(q Query) (*Explain, error) {
	p, err := s.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.Explain()
}

// Rebuild re-bulk-loads the indexes from the dataset the current engine
// shows — pending live-ingest mutations included — plus any objects and
// features added with AddObjects/AddFeatureSet since the last build, and
// atomically swaps them in. Queries already in flight finish against the
// previous snapshot; new snapshots observe an incremented Generation. It
// works on any built DB, however it came to be: the indexes are the data, so
// one loaded with Open rebuilds like one built in this process.
func (db *DB) Rebuild() error {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.built {
		return fmt.Errorf("%w: Rebuild before Build", ErrNotBuilt)
	}
	if db.pendingLocked() {
		// Forced down the full path, since data may have been staged; counted
		// as a merge like any other that consumes pending generations.
		return db.mergeLocked(true)
	}
	return db.fullMergeLocked(nil, nil)
}
