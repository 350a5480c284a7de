package stpq

// ingest.go is the public live write path: DB.Apply appends a mutation
// batch to a write-ahead log, applies it to an in-memory delta, and
// publishes an engine over base + delta index parts whose answers are
// byte-identical to a from-scratch rebuild; DB.Flush merges the delta into
// a new base generation; DB.Checkpoint makes the merged state durable and
// trims the log; AttachWAL replays the log after a crash. The heavy
// lifting lives in internal/ingest; see DESIGN.md §11 "Write path".

import (
	"encoding/json"
	"errors"
	"fmt"

	"stpq/internal/core"
	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/ingest"
	"stpq/internal/kwset"
	"stpq/internal/obs"
)

// MutationOp identifies the kind of one mutation. The string values are
// the WAL wire format — stable across versions.
type MutationOp string

const (
	// OpUpsertObject inserts a data object or overwrites the one with the
	// same id.
	OpUpsertObject MutationOp = "upsert_object"
	// OpDeleteObject deletes the data object with Mutation.ID.
	OpDeleteObject MutationOp = "delete_object"
	// OpUpsertFeature inserts a feature into set Mutation.Set or
	// overwrites the one with the same id.
	OpUpsertFeature MutationOp = "upsert_feature"
	// OpDeleteFeature deletes the feature with Mutation.ID from set
	// Mutation.Set.
	OpDeleteFeature MutationOp = "delete_feature"
)

// Mutation is one element of an Apply batch.
type Mutation struct {
	Op MutationOp `json:"op"`
	// Set names the target feature set (feature ops only).
	Set string `json:"set,omitempty"`
	// Object carries the object payload of OpUpsertObject.
	Object *Object `json:"object,omitempty"`
	// Feature carries the feature payload of OpUpsertFeature.
	Feature *Feature `json:"feature,omitempty"`
	// ID is the delete target of OpDeleteObject / OpDeleteFeature.
	ID int64 `json:"id,omitempty"`
}

// DefaultAutoFlushOps is the delta size at which Apply merges into a new
// base generation when Config.AutoFlushOps is 0.
const DefaultAutoFlushOps = 4096

// Ingest error sentinels.
var (
	// ErrNoWAL is returned by Apply when no write-ahead log is attached
	// (set Config.WALDir or call AttachWAL after Build/Open).
	ErrNoWAL = errors.New("stpq: no WAL attached")
	// ErrWALAttached is returned by AttachWAL when a log is already
	// attached.
	ErrWALAttached = errors.New("stpq: WAL already attached")
	// ErrIngestUnsupported is returned for DB configurations without a
	// write path: sharded DBs.
	ErrIngestUnsupported = errors.New("stpq: live ingest requires an unsharded DB")
	// ErrInvalidMutation wraps every mutation-validation error.
	ErrInvalidMutation = errors.New("stpq: invalid mutation")
)

// Apply appends the batch to the WAL (returning only after it is durable
// per the group-commit setting), applies it to the in-memory delta, and
// atomically publishes a new engine generation serving base + delta.
// Batches are applied atomically with respect to queries: a snapshot sees
// either none or all of a batch. When the delta reaches the auto-flush
// threshold Apply additionally merges delta into base (see Flush); when a
// mutation introduces a keyword outside the indexed vocabulary it first
// rebuilds the base at the wider vocabulary, pending mutations folded in,
// and the batch then enters the delta like any other.
func (db *DB) Apply(muts []Mutation) error {
	if len(muts) == 0 {
		return nil
	}
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.mu.RLock()
	wal := db.wal
	err := db.validateMutationsLocked(muts)
	db.mu.RUnlock()
	if err != nil {
		return err
	}
	if wal == nil {
		return ErrNoWAL
	}
	payload, err := json.Marshal(muts)
	if err != nil {
		return fmt.Errorf("stpq: encoding mutations: %w", err)
	}
	// Durability first: the record is on disk before the state changes, so
	// a crash at any later point replays it.
	seq, err := wal.Append(payload)
	if err != nil {
		return fmt.Errorf("stpq: WAL append: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.applyBatchLocked(muts, true); err != nil {
		return err
	}
	db.walSeq = seq
	db.ingestApplied.Add(int64(len(muts)))
	return nil
}

// Flush merges every pending generation — sealed runs and the active
// delta — into the base indexes, publishing a new generation. Under the
// default the merge is incremental: the net mutations
// are batch-applied into copy-on-write clones of the base trees, so only
// touched subtrees are rewritten. A no-op when nothing is pending. Flush
// does not trim the WAL — only Checkpoint moves the durable watermark.
func (db *DB) Flush() error {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.built {
		return fmt.Errorf("%w: Flush before Build", ErrNotBuilt)
	}
	if !db.pendingLocked() {
		return nil
	}
	return db.mergeLocked(false)
}

// pendingLocked reports whether any unmerged mutations exist (sealed runs
// or a non-empty delta).
func (db *DB) pendingLocked() bool {
	return len(db.runs) > 0 || (db.delta != nil && !db.delta.Empty())
}

// PendingOps returns the number of mutations applied since the last merge
// — the active delta plus every sealed, uncompacted run.
func (db *DB) PendingOps() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.pendingOpsLocked()
}

// pendingOpsLocked counts the mutations in the sealed runs and the delta.
func (db *DB) pendingOpsLocked() int {
	n := 0
	for _, r := range db.runs {
		n += r.Ops
	}
	if db.delta != nil {
		n += db.delta.Ops()
	}
	return n
}

// Runs returns the number of sealed runs awaiting background compaction.
func (db *DB) Runs() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.runs)
}

// WALSeq returns the sequence number of the last applied WAL record (0
// before any append).
func (db *DB) WALSeq() uint64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.walSeq
}

// Checkpoint merges every pending generation, saves the merged DB to dir
// (recording the WAL position in the manifest), and drops the log
// segments the snapshot makes redundant. After a crash, Open(dir) + the
// manifest's WALDir replay only the records after the checkpoint.
//
// The disk phase runs against a pinned generation with no DB locks held:
// the merged engine's pages are immutable by construction (later partial
// merges write only copy-on-write overlays), so Apply keeps accepting
// writes while the snapshot streams out. The save itself is atomic — page
// dumps land under generation-stamped names and the manifest is renamed
// into place last — so a crash mid-checkpoint leaves the previous
// checkpoint fully intact, and durable before the log is touched: every
// dump and the manifest are fsynced, then the directory, and only then are
// the segments the checkpoint covers unlinked.
func (db *DB) Checkpoint(dir string) error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.ingestMu.Lock()
	db.mu.Lock()
	if !db.built {
		db.mu.Unlock()
		db.ingestMu.Unlock()
		return fmt.Errorf("%w: Checkpoint before Build", ErrNotBuilt)
	}
	wal := db.wal
	if wal == nil {
		db.mu.Unlock()
		db.ingestMu.Unlock()
		return ErrNoWAL
	}
	if db.pendingLocked() {
		if err := db.mergeLocked(false); err != nil {
			db.mu.Unlock()
			db.ingestMu.Unlock()
			return err
		}
	}
	prevApplied := db.appliedSeq
	db.appliedSeq = db.walSeq
	seq := db.walSeq
	// A checkpoint before any WAL append still gets a stamped (and
	// therefore atomically replaceable) file generation.
	pin := db.pinLocked(max(seq, 1))
	db.mu.Unlock()
	db.ingestMu.Unlock()
	if err := pin.save(dir); err != nil {
		db.mu.Lock()
		if db.appliedSeq == seq {
			db.appliedSeq = prevApplied
		}
		db.mu.Unlock()
		return err
	}
	return wal.DropThrough(seq)
}

// walRetainSegments is how many sealed WAL segments a checkpoint leaves in
// place after making them redundant, so a follower lagging behind the
// checkpoint can still fetch them instead of failing with
// ErrReplicationGap. A segment seals at ingest.DefaultSegmentBytes (4 MiB)
// or at a WALRotate.
const walRetainSegments = 4

// AttachWAL opens (or creates) the write-ahead log in dir and replays
// every record after the DB's durable watermark — the manifest position
// for opened DBs, the beginning of the log otherwise. It returns the
// number of replayed mutations. Build and Open attach automatically when
// Config.WALDir is set; AttachWAL serves DBs built programmatically.
func (db *DB) AttachWAL(dir string) (int, error) {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.attachWALLocked(dir)
}

// attachWALLocked implements AttachWAL; callers hold both locks.
func (db *DB) attachWALLocked(dir string) (int, error) {
	if !db.built {
		return 0, fmt.Errorf("%w: AttachWAL before Build", ErrNotBuilt)
	}
	if db.wal != nil {
		return 0, ErrWALAttached
	}
	if err := db.cfg.ingestable(); err != nil {
		return 0, err
	}
	fsync := db.metrics.Histogram("stpq_ingest_wal_fsync_seconds", obs.LatencyBuckets)
	appends := db.metrics.Counter("stpq_wal_appends_total")
	walBytes := db.metrics.Counter("stpq_wal_bytes_total")
	w, err := ingest.OpenWAL(dir, ingest.WALOptions{
		SegmentBytes:   ingest.DefaultSegmentBytes,
		GroupCommit:    db.cfg.WALGroupCommit,
		RetainSegments: walRetainSegments,
		FsyncObserver:  fsync.Observe,
		AppendObserver: func(n int) {
			appends.Inc()
			walBytes.Add(int64(n))
		},
	})
	if err != nil {
		return 0, fmt.Errorf("stpq: opening WAL: %w", err)
	}
	replayed := 0
	err = w.Replay(db.appliedSeq+1, func(seq uint64, payload []byte) error {
		var muts []Mutation
		if err := json.Unmarshal(payload, &muts); err != nil {
			return fmt.Errorf("stpq: WAL record %d: %w", seq, err)
		}
		if err := db.validateMutationsLocked(muts); err != nil {
			return fmt.Errorf("stpq: WAL record %d: %w", seq, err)
		}
		if err := db.applyBatchLocked(muts, false); err != nil {
			return fmt.Errorf("stpq: WAL record %d: %w", seq, err)
		}
		db.walSeq = seq
		replayed += len(muts)
		return nil
	})
	if err != nil {
		w.Close()
		return 0, err
	}
	if db.pendingLocked() {
		if err := db.publishPendingLocked(); err != nil {
			w.Close()
			return 0, err
		}
	}
	if next := w.NextSeq(); db.walSeq < next-1 {
		db.walSeq = next - 1
	}
	db.wal = w
	db.metrics.Counter("stpq_ingest_replayed_total").Add(int64(replayed))
	if db.cfg.BackgroundCompaction && db.compactDone == nil {
		db.compactC = make(chan struct{}, 1)
		db.compactStop = make(chan struct{})
		db.compactDone = make(chan struct{})
		go db.compactorLoop(db.compactC, db.compactStop, db.compactDone)
		if len(db.runs) > 0 {
			db.nudgeCompactor()
		}
	}
	return replayed, nil
}

// CloseWAL stops the background compactor, flushes pending group commits
// and closes the log. The DB keeps answering queries; Apply fails with
// ErrNoWAL afterwards. Unmerged runs and delta stay queryable and remain
// recoverable from the log they were appended to.
func (db *DB) CloseWAL() error {
	db.ingestMu.Lock()
	db.mu.Lock()
	stop, done := db.compactStop, db.compactDone
	db.compactStop, db.compactDone, db.compactC = nil, nil, nil
	db.mu.Unlock()
	db.ingestMu.Unlock()
	if stop != nil {
		close(stop)
		<-done // the compactor may be mid-swap; wait it out
	}
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return nil
	}
	err := db.wal.Close()
	db.wal = nil
	return err
}

// ingestable rejects configurations without a write path.
func (c Config) ingestable() error {
	if c.ShardCount > 1 {
		return fmt.Errorf("%w (ShardCount %d)", ErrIngestUnsupported, c.ShardCount)
	}
	return nil
}

// validateMutationsLocked checks a batch against the current schema.
func (db *DB) validateMutationsLocked(muts []Mutation) error {
	if !db.built {
		return fmt.Errorf("%w: Apply before Build", ErrNotBuilt)
	}
	if err := db.cfg.ingestable(); err != nil {
		return err
	}
	for i, m := range muts {
		switch m.Op {
		case OpUpsertObject:
			if m.Object == nil {
				return fmt.Errorf("%w: mutation %d: upsert_object without object", ErrInvalidMutation, i)
			}
			if err := checkItem(m.Object.X, m.Object.Y, 0); err != nil {
				return fmt.Errorf("%w: mutation %d: object %d: %v", ErrInvalidMutation, i, m.Object.ID, err)
			}
		case OpDeleteObject:
			// ID-only; nothing to check.
		case OpUpsertFeature:
			if m.Feature == nil {
				return fmt.Errorf("%w: mutation %d: upsert_feature without feature", ErrInvalidMutation, i)
			}
			if err := checkItem(m.Feature.X, m.Feature.Y, m.Feature.Score); err != nil {
				return fmt.Errorf("%w: mutation %d: feature %d: %v", ErrInvalidMutation, i, m.Feature.ID, err)
			}
			if db.setPosLocked(m.Set) < 0 {
				return fmt.Errorf("%w: mutation %d: unknown feature set %q", ErrInvalidMutation, i, m.Set)
			}
		case OpDeleteFeature:
			if db.setPosLocked(m.Set) < 0 {
				return fmt.Errorf("%w: mutation %d: unknown feature set %q", ErrInvalidMutation, i, m.Set)
			}
		default:
			return fmt.Errorf("%w: mutation %d: unknown op %q", ErrInvalidMutation, i, m.Op)
		}
	}
	return nil
}

// setPosLocked returns the position of a feature set name, or -1.
func (db *DB) setPosLocked(name string) int {
	for i, n := range db.setNames {
		if n == name {
			return i
		}
	}
	return -1
}

// applyBatchLocked applies one validated batch to the in-memory state —
// the one door every mutation comes through, whether from Apply, WAL replay
// or a leader's shipped log: it routes the batch into the delta and, when
// publish is set, swaps in a fresh base + delta generation. The pending
// parts have the base's vocabulary width, so a batch with unseen keywords
// first widens every index with one rebuild that interns them. A delta
// reaching the auto-flush threshold merges synchronously — or, under
// BackgroundCompaction, is sealed into an immutable run for the compactor,
// keeping the write stall at O(1). Replay passes publish=false and
// publishes once at the end.
func (db *DB) applyBatchLocked(muts []Mutation, publish bool) error {
	if err := db.ensureWriteStateLocked(nil, nil); err != nil {
		return err
	}
	if words := db.unseenWordsLocked(muts); len(words) > 0 {
		if err := db.mergeLocked(true, words...); err != nil {
			return err
		}
	}
	if db.delta == nil {
		db.delta = ingest.NewDelta(len(db.setNames))
	}
	for _, m := range muts {
		switch m.Op {
		case OpUpsertObject:
			o := *m.Object
			db.delta.UpsertObject(index.Object{ID: o.ID, Location: geo.Point{X: o.X, Y: o.Y}})
		case OpDeleteObject:
			db.delta.DeleteObject(m.ID)
		case OpUpsertFeature:
			f := *m.Feature
			db.delta.UpsertFeature(db.setPosLocked(m.Set), index.Feature{
				ID:       f.ID,
				Location: geo.Point{X: f.X, Y: f.Y},
				Score:    f.Score,
				Keywords: db.vocab.LookupSet(f.Keywords...),
			})
		case OpDeleteFeature:
			db.delta.DeleteFeature(db.setPosLocked(m.Set), m.ID)
		}
	}
	if t := db.autoFlushThreshold(); t > 0 && db.delta.Ops() >= t {
		if !db.backgroundOnLocked() {
			return db.mergeLocked(false)
		}
		if len(db.runs) >= db.maxRuns() {
			// Backpressure: the compactor is behind; merge synchronously
			// rather than grow runs without bound. This is the write
			// stall the metric counts.
			db.writeStalls.Inc()
			return db.mergeLocked(false)
		}
		db.sealDeltaLocked()
	}
	if publish {
		return db.publishPendingLocked()
	}
	return nil
}

// backgroundOnLocked reports whether the background compactor is running.
func (db *DB) backgroundOnLocked() bool {
	return db.cfg.BackgroundCompaction && db.compactDone != nil
}

// compactRunsWatermark resolves Config.CompactRuns.
func (db *DB) compactRunsWatermark() int {
	if db.cfg.CompactRuns > 0 {
		return db.cfg.CompactRuns
	}
	return 4
}

// maxRuns is the write-backpressure cap: when sealing would exceed this
// many runs, Apply merges synchronously instead.
func (db *DB) maxRuns() int { return 4 * db.compactRunsWatermark() }

// sealDeltaLocked converts the active delta into an immutable run and
// wakes the compactor. Sealing is O(1): the run takes over the delta's maps.
func (db *DB) sealDeltaLocked() {
	db.runs = append(db.runs, db.delta.Seal())
	db.delta = nil
	db.metrics.Gauge("stpq_ingest_runs").Set(float64(len(db.runs)))
	if len(db.runs) >= db.compactRunsWatermark() {
		db.nudgeCompactor()
	}
}

// nudgeCompactor wakes the compactor goroutine without blocking. Callers
// hold db.mu.
func (db *DB) nudgeCompactor() {
	if db.compactC == nil {
		return
	}
	select {
	case db.compactC <- struct{}{}:
	default:
	}
}

// autoFlushThreshold resolves Config.AutoFlushOps (0 = default, negative =
// disabled).
func (db *DB) autoFlushThreshold() int {
	if db.cfg.AutoFlushOps < 0 {
		return 0
	}
	if db.cfg.AutoFlushOps == 0 {
		return DefaultAutoFlushOps
	}
	return db.cfg.AutoFlushOps
}

// unseenWordsLocked returns the keywords of the batch's upserted features
// that lie outside the indexed vocabulary.
func (db *DB) unseenWordsLocked(muts []Mutation) []string {
	var words []string
	for _, m := range muts {
		if m.Op != OpUpsertFeature || m.Feature == nil {
			continue
		}
		for _, w := range m.Feature.Keywords {
			// A word that normalizes to nothing is never indexable; Build
			// drops it too.
			if kwset.Normalize(w) != "" && db.vocab.Lookup(w) < 0 {
				words = append(words, w)
			}
		}
	}
	return words
}

// deltaIndexOptions are the options of every index built over pending
// mutations: the base indexes' kind, vocabulary width and page geometry, so
// delta parts compose with the base parts in one engine.
func (db *DB) deltaIndexOptions() index.Options {
	return index.Options{
		Kind:        index.Kind(db.cfg.IndexKind),
		VocabWidth:  db.vocab.Size(),
		PageSize:    db.cfg.PageSize,
		BufferPages: db.cfg.BufferPages,
	}
}

// publishPendingLocked swaps in a new engine generation over the base and
// the pending layers.
func (db *DB) publishPendingLocked() error {
	net := ingest.CollectNet(db.pendingLayersLocked(), len(db.setNames))
	eng, err := db.pendingEngineLocked(net)
	if err != nil {
		return err
	}
	db.publishLocked(eng)
	db.metrics.Gauge("stpq_ingest_delta_objects").Set(float64(len(net.UpsObj)))
	db.metrics.Gauge("stpq_ingest_delta_ops").Set(float64(db.pendingOpsLocked()))
	return nil
}

// pendingEngineLocked assembles, without publishing it, the engine that
// shows the logical dataset: the base and net, the net effect of the
// pending layers (sealed runs, then the live delta). On the object side and
// in every feature set alike, the base part is filtered by net's tombstones
// and what the layers upserted is folded into ONE small bulk-loaded part
// beside it (one per publish, not one per run: every object part costs each
// combination probe a root read, every feature part each stream one). A
// query over base + delta is therefore one STDS/STPS over more parts,
// nothing else. Nothing of the live delta reaches the engine: net's maps
// are its own.
func (db *DB) pendingEngineLocked(net *ingest.Net) (*core.Engine, error) {
	objects := []*index.ObjectIndex{soleObjects(db.base).WithExclude(net.DeadObj, hiddenIn(net.DeadObj, db.objLoc))}
	if len(net.UpsObj) > 0 {
		part, err := index.BuildObjectIndex(sortedValues(net.UpsObj), db.deltaIndexOptions())
		if err != nil {
			return nil, fmt.Errorf("stpq: indexing delta objects: %w", err)
		}
		objects = append(objects, part)
	}
	groups := make([]*index.FeatureGroup, len(db.setNames))
	for i := range db.setNames {
		base := db.base.FeatureGroups()[i].Part(0)
		parts := []*index.FeatureIndex{base.WithExclude(net.DeadFeat[i], hiddenIn(net.DeadFeat[i], db.featLoc[i]))}
		if len(net.UpsFeat[i]) > 0 {
			part, err := index.BuildFeatureIndex(sortedValues(net.UpsFeat[i]), db.deltaIndexOptions())
			if err != nil {
				return nil, fmt.Errorf("stpq: indexing delta features of set %d: %w", i, err)
			}
			parts = append(parts, part)
		}
		var err error
		if groups[i], err = index.NewFeatureGroup(parts...); err != nil {
			return nil, err
		}
	}
	return core.NewEngineOverParts(objects, 0, groups, coreOptions)
}

// hiddenIn counts the tombstones that hide an id the base holds (loc is
// where every base id lives), so that a filtered base part keeps counting
// live entries only.
func hiddenIn(dead map[int64]struct{}, loc map[int64]geo.Point) int {
	n := 0
	for id := range dead {
		if _, ok := loc[id]; ok {
			n++
		}
	}
	return n
}

// ensureWriteStateLocked derives, the first time a mutation arrives, what
// the write path keeps beside the base indexes: where every base id lives
// (partial merges delete by location, and a publish counts the base objects
// its tombstones hide), the base trees' heights as the degradation baseline
// of the incremental-merge heuristic, and the write-path metric series.
// buildLocked passes the dataset it just bulk-loaded; any other DB — opened
// from disk, or built long before its first write — walks the base leaves
// once. Merge swaps keep the maps current, so the write path never rescans
// the base.
func (db *DB) ensureWriteStateLocked(objs []index.Object, featSets [][]index.Feature) error {
	if db.objLoc != nil {
		return nil
	}
	if objs == nil {
		var err error
		if objs, featSets, err = readBack(db.base); err != nil {
			return err
		}
	}
	db.objLoc = make(map[int64]geo.Point, len(objs))
	for _, o := range objs {
		db.objLoc[o.ID] = o.Location
	}
	db.featLoc = make([]map[int64]geo.Point, len(featSets))
	db.baseHeights = []int{soleObjects(db.base).Tree().Height()}
	for i, feats := range featSets {
		db.featLoc[i] = make(map[int64]geo.Point, len(feats))
		for _, f := range feats {
			db.featLoc[i][f.ID] = f.Location
		}
		db.baseHeights = append(db.baseHeights, db.base.FeatureGroups()[i].Part(0).Tree().Height())
	}
	if db.mergeSeconds == nil {
		db.ingestApplied = db.metrics.Counter("stpq_ingest_applied_total")
		db.ingestMerges = db.metrics.Counter("stpq_ingest_merges_total")
		db.partialMerges = db.metrics.Counter("stpq_ingest_partial_merges_total")
		db.fullRebuilds = db.metrics.Counter("stpq_ingest_full_rebuilds_total")
		db.compactions = db.metrics.Counter("stpq_ingest_compactions_total")
		db.compactsLost = db.metrics.Counter("stpq_ingest_compactions_abandoned_total")
		db.writeStalls = db.metrics.Counter("stpq_ingest_write_stalls_total")
		db.mergeSeconds = db.metrics.Histogram("stpq_ingest_merge_seconds", obs.LatencyBuckets)
	}
	return nil
}
