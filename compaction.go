package stpq

// compaction.go implements the generational merge pipeline that replaced
// the O(N) rebuild-on-flush write path (see DESIGN.md §11). Pending
// mutations live in up to three tiers — the mutable delta, sealed
// immutable runs, and the bulk-loaded base — and mergeLocked folds the
// first two into the third one of two ways:
//
//   - Partial merge (the default): the net mutations are batch-applied
//     into copy-on-write clones of the base trees via rtree.Insert/Delete,
//     so only the touched subtree pages are rewritten and the merge costs
//     O(delta·log N) instead of O(N). Older snapshots keep reading the
//     original pages through the CowDisk base.
//   - Full rebuild: the logical dataset is read back from the engine over
//     base + pending layers and the whole engine is re-bulk-loaded — the
//     degradation fallback, and how the indexes are widened for a batch
//     with unseen keywords.
//
// The background compactor (Config.BackgroundCompaction) runs the same
// partial merge off the write path: it pins the sealed runs under a read
// lock, applies the net ops to clones with no locks held (paced by
// ingest.Pacer so foreground queries keep their latency), and swaps the
// new generation in under a short critical section, abandoning the work
// if a foreground merge replaced the base mid-flight (mergeEpoch).

import (
	"fmt"
	"slices"
	"time"

	"stpq/internal/core"
	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/ingest"
)

// pendingLayersLocked returns the pending generations oldest first: sealed
// runs, then the active delta. The delta's layer is the live maps, so the
// result is only valid while db.mu is held.
func (db *DB) pendingLayersLocked() []*ingest.Layer {
	layers := make([]*ingest.Layer, 0, len(db.runs)+1)
	for _, r := range db.runs {
		layers = append(layers, &r.Layer)
	}
	if db.delta != nil && !db.delta.Empty() {
		layers = append(layers, &db.delta.Layer)
	}
	return layers
}

// mergeLocked folds every pending generation into the base and publishes
// the merged engine. forceFull bypasses the incremental path — required
// when the caller (Rebuild) must fold staged data in, or when words, the
// keywords a batch is about to bring, must widen the vocabulary first. A
// failed partial merge falls back to the full rebuild: the copy-on-write
// clones are discarded, so the base is still intact. Callers hold ingestMu
// and db.mu.
func (db *DB) mergeLocked(forceFull bool, words ...string) error {
	start := time.Now()
	net := ingest.CollectNet(db.pendingLayersLocked(), len(db.setNames))
	full := forceFull || !db.canPartialMergeLocked(net)
	if !full {
		full = db.partialMergeLocked(net) != nil
	}
	if full {
		if err := db.fullMergeLocked(net, words); err != nil {
			return err
		}
	}
	db.lastMergeSecs = time.Since(start).Seconds()
	db.mergeSeconds.Observe(db.lastMergeSecs)
	db.ingestMerges.Inc()
	if full {
		db.fullRebuilds.Inc()
	} else {
		db.partialMerges.Inc()
	}
	db.metrics.Gauge("stpq_ingest_delta_objects").Set(0)
	db.metrics.Gauge("stpq_ingest_delta_ops").Set(0)
	db.metrics.Gauge("stpq_ingest_runs").Set(0)
	return nil
}

// fullMergeLocked re-bulk-loads the whole engine from the logical dataset,
// read back from the engine that shows it: db.engine when nothing is
// pending, else the view over base + layers, assembled here and never
// published (so the generation is bumped once). The oracle suites hold that
// view byte-identical to a from-scratch build after every batch, which is
// what makes it a sound copy to rebuild from. words are interned first.
func (db *DB) fullMergeLocked(net *ingest.Net, words []string) error {
	view := db.engine
	if db.pendingLocked() {
		var err error
		if view, err = db.pendingEngineLocked(net); err != nil {
			return err
		}
	}
	objs, featSets, err := readBack(view)
	if err != nil {
		return err
	}
	// Intern into a clone so snapshots of the previous generation keep a
	// stable vocabulary.
	db.vocab = db.vocab.Clone()
	for _, w := range words {
		db.vocab.Intern(w)
	}
	return db.buildLocked(objs, featSets)
}

// mergeDriftRatio is the degradation threshold: a full rebuild replaces the
// incremental path once the net mutations merged incrementally since the
// last bulk load exceed this fraction of the live data size.
const mergeDriftRatio = 0.5

// canPartialMergeLocked decides whether the pending net mutations may be
// merged incrementally: when structurally possible and the tree-quality
// heuristic passes — bounded cumulative drift, heights within one level of
// the bulk-loaded baseline, and a bounded overflow-split count.
func (db *DB) canPartialMergeLocked(net *ingest.Net) bool {
	for i := range db.setNames {
		g := db.base.FeatureGroups()[i]
		if len(g.Parts()) != 1 {
			return false
		}
	}
	if db.forceIncremental {
		return true
	}
	live := len(db.objLoc)
	for _, m := range db.featLoc {
		live += len(m)
	}
	if float64(db.incrOps+net.Count) > mergeDriftRatio*float64(live+net.Count) {
		return false
	}
	if db.treesDegradedLocked() {
		return false
	}
	splitCap := live / 8
	if splitCap < 64 {
		splitCap = 64
	}
	return db.incrSplits <= splitCap
}

// treesDegradedLocked reports whether any live tree has grown more than
// one level past its bulk-loaded baseline — the signal that incremental
// insertion has noticeably loosened the packing.
func (db *DB) treesDegradedLocked() bool {
	if soleObjects(db.base).Tree().Height() > db.baseHeights[0]+1 {
		return true
	}
	for i := range db.setNames {
		if db.base.FeatureGroups()[i].Part(0).Tree().Height() > db.baseHeights[1+i]+1 {
			return true
		}
	}
	return false
}

// beginMerge clones the base engine's indexes for an incremental merge:
// each clone reads the shared base pages through a copy-on-write disk and
// writes only its private overlay.
func beginMerge(base *core.Engine, numSets int) (*index.ObjectIndex, []*index.FeatureIndex, error) {
	oidx, err := soleObjects(base).BeginMerge()
	if err != nil {
		return nil, nil, err
	}
	fidxs := make([]*index.FeatureIndex, numSets)
	for i := range fidxs {
		fidxs[i], err = base.FeatureGroups()[i].Part(0).BeginMerge()
		if err != nil {
			return nil, nil, err
		}
	}
	return oidx, fidxs, nil
}

// partialMergeLocked merges the net mutations into copy-on-write clones
// of the base trees and swaps the merged engine in. On error the clones
// are simply dropped; the base is untouched.
func (db *DB) partialMergeLocked(net *ingest.Net) error {
	oidx, fidxs, err := beginMerge(db.base, len(db.setNames))
	if err != nil {
		return err
	}
	if err := applyNetOps(oidx, fidxs, net, db.objLoc, db.featLoc, nil); err != nil {
		return err
	}
	return db.swapMergedLocked(oidx, fidxs, net, -1)
}

// applyNetOps batch-applies the net mutations to merge clones: deletes
// first (freeing space in the touched leaves), then inserts, both in
// ascending id order for determinism. Deletes need the base location of
// each id (rtree.Delete is location-keyed); ids absent from the location
// maps were never in the base and have nothing to delete. Every feature
// insert runs the Section 4.2 decode→OR→encode node-update rule along its
// insertion path. The pacer, when non-nil, throttles background work.
func applyNetOps(oidx *index.ObjectIndex, fidxs []*index.FeatureIndex, net *ingest.Net,
	objLoc map[int64]geo.Point, featLoc []map[int64]geo.Point, p *ingest.Pacer) error {
	for _, id := range sortedIDs(net.DeadObj) {
		loc, ok := objLoc[id]
		if !ok {
			continue
		}
		if _, err := oidx.Delete(id, loc); err != nil {
			return fmt.Errorf("stpq: merge delete object %d: %w", id, err)
		}
		p.Tick()
	}
	for _, id := range sortedIDs(net.UpsObj) {
		if err := oidx.Insert(net.UpsObj[id]); err != nil {
			return fmt.Errorf("stpq: merge insert object %d: %w", id, err)
		}
		p.Tick()
	}
	for i, fx := range fidxs {
		for _, id := range sortedIDs(net.DeadFeat[i]) {
			loc, ok := featLoc[i][id]
			if !ok {
				continue
			}
			if _, err := fx.Delete(id, loc); err != nil {
				return fmt.Errorf("stpq: merge delete feature %d of set %d: %w", id, i, err)
			}
			p.Tick()
		}
		for _, id := range sortedIDs(net.UpsFeat[i]) {
			if err := fx.Insert(net.UpsFeat[i][id]); err != nil {
				return fmt.Errorf("stpq: merge insert feature %d of set %d: %w", id, i, err)
			}
			p.Tick()
		}
	}
	return nil
}

// sortedIDs returns a map's keys in ascending order — the one order every
// fold and merge applies ids in, so replaying a WAL reproduces the same
// index input.
func sortedIDs[V any](m map[int64]V) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// sortedValues returns a map's values in ascending key order: the bulk-load
// input of a pending part.
func sortedValues[V any](m map[int64]V) []V {
	out := make([]V, 0, len(m))
	for _, id := range sortedIDs(m) {
		out = append(out, m[id])
	}
	return out
}

// swapMergedLocked installs merged clone indexes as the new base
// generation: it assembles the engine, applies the net mutations to the
// location maps and advances the drift accounting. compactedRuns < 0 means a
// foreground merge that consumed every pending generation; otherwise only
// the first compactedRuns sealed runs were folded (background compaction)
// and the remainder — plus the active delta — is re-published over the new
// base. Callers hold ingestMu and db.mu.
func (db *DB) swapMergedLocked(oidx *index.ObjectIndex, fidxs []*index.FeatureIndex, net *ingest.Net, compactedRuns int) error {
	eng, err := core.NewEngine(oidx, fidxs, coreOptions)
	if err != nil {
		return err
	}
	for id := range net.DeadObj {
		delete(db.objLoc, id)
	}
	for id, o := range net.UpsObj {
		db.objLoc[id] = o.Location
	}
	for i := range db.setNames {
		for id := range net.DeadFeat[i] {
			delete(db.featLoc[i], id)
		}
		for id, f := range net.UpsFeat[i] {
			db.featLoc[i][id] = f.Location
		}
	}
	db.incrOps += net.Count
	db.incrSplits += oidx.Tree().Splits()
	for _, fx := range fidxs {
		db.incrSplits += fx.Tree().Splits()
	}
	db.installBaseLocked(eng, nil)
	if compactedRuns < 0 {
		db.runs, db.delta = nil, nil
	} else {
		db.runs = append([]*ingest.Run(nil), db.runs[compactedRuns:]...)
		db.metrics.Gauge("stpq_ingest_runs").Set(float64(len(db.runs)))
	}
	if db.pendingLocked() {
		return db.publishPendingLocked()
	}
	db.publishLocked(eng)
	return nil
}

// compactorLoop is the background compactor goroutine: it sleeps until
// nudged (a sealed run crossed the watermark) and drains compactions until
// the backlog is below the watermark again. The channels are passed in
// rather than read from the DB so CloseWAL can nil the fields without a
// race.
func (db *DB) compactorLoop(wake, stop, done chan struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		case <-wake:
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			more, err := db.compactOnce()
			if err != nil || !more {
				break
			}
		}
	}
}

// compactOnce performs one background compaction in three phases:
//
//  1. Pin (read lock): capture the sealed runs, their net effect, the base
//     engine, the merge epoch and private copies of the locations of every
//     id to delete.
//  2. Apply (no locks): clone the base indexes copy-on-write and batch-
//     apply the net mutations, paced so saturated foreground traffic keeps
//     its latency.
//  3. Swap (write locks): if no foreground merge replaced the base in the
//     meantime (mergeEpoch), publish the merged generation and drop the
//     compacted runs; otherwise abandon the clones — the foreground merge
//     already folded these runs.
//
// Returns whether the backlog still warrants another round.
func (db *DB) compactOnce() (bool, error) {
	db.mu.RLock()
	if db.base == nil || len(db.runs) < db.compactRunsWatermark() {
		db.mu.RUnlock()
		return false, nil
	}
	epoch := db.mergeEpoch
	base := db.base
	nruns := len(db.runs)
	net := ingest.CollectNet(db.pendingLayersLocked()[:nruns], len(db.setNames))
	partialOK := db.canPartialMergeLocked(net)
	objLoc := pinLocs(db.objLoc, net.DeadObj)
	featLoc := make([]map[int64]geo.Point, len(db.featLoc))
	for i := range db.featLoc {
		featLoc[i] = pinLocs(db.featLoc[i], net.DeadFeat[i])
	}
	gate := db.compactGate
	db.mu.RUnlock()

	if !partialOK {
		// Degraded trees: fall back to a
		// synchronous full merge under the write locks. Expensive, but it
		// resets the drift accounting and re-packs every tree.
		db.ingestMu.Lock()
		db.mu.Lock()
		var err error
		if db.pendingLocked() {
			err = db.mergeLocked(true)
		}
		db.mu.Unlock()
		db.ingestMu.Unlock()
		return false, err
	}

	start := time.Now()
	oidx, fidxs, err := beginMerge(base, len(featLoc))
	if err != nil {
		return false, err
	}
	pacer := &ingest.Pacer{Gate: gate}
	if err := applyNetOps(oidx, fidxs, net, objLoc, featLoc, pacer); err != nil {
		return false, err
	}

	swapStart := time.Now()
	db.ingestMu.Lock()
	db.mu.Lock()
	defer db.ingestMu.Unlock()
	defer db.mu.Unlock()
	if db.mergeEpoch != epoch {
		// A foreground merge (Flush, Checkpoint, backpressure or vocabulary
		// growth) consumed these runs already; the clones are garbage.
		db.compactsLost.Inc()
		return true, nil
	}
	if err := db.swapMergedLocked(oidx, fidxs, net, nruns); err != nil {
		return false, err
	}
	db.lastMergeSecs = time.Since(start).Seconds()
	db.lastStallSecs = time.Since(swapStart).Seconds()
	db.mergeSeconds.Observe(db.lastMergeSecs)
	db.compactions.Inc()
	db.partialMerges.Inc()
	db.metrics.Gauge("stpq_ingest_write_stall_seconds").Set(db.lastStallSecs)
	return len(db.runs) >= db.compactRunsWatermark(), nil
}

// pinLocs copies the locations of the given ids out of a live location
// map, so the compactor can use them after the read lock is released.
func pinLocs(src map[int64]geo.Point, ids map[int64]struct{}) map[int64]geo.Point {
	out := make(map[int64]geo.Point, len(ids))
	for id := range ids {
		if loc, ok := src[id]; ok {
			out[id] = loc
		}
	}
	return out
}

// SetCompactionGate installs a foreground-saturation probe for the
// background compactor: while it returns true, the compactor backs off at
// every pacing point. The serving
// layer wires its admission-queue depth here so compactions yield to
// queued queries. Pass nil to remove the gate.
func (db *DB) SetCompactionGate(gate func() bool) {
	db.mu.Lock()
	db.compactGate = gate
	db.mu.Unlock()
}

// IngestStatus is a point-in-time summary of the live write path, exposed
// by the serving layer's /info endpoint.
type IngestStatus struct {
	// WALAttached reports whether the DB has a write-ahead log (Apply works).
	WALAttached bool `json:"walAttached"`
	// WALSeq is the last applied WAL sequence number.
	WALSeq uint64 `json:"walSeq"`
	// PendingOps counts unmerged mutations (active delta plus sealed runs).
	PendingOps int `json:"pendingOps"`
	// Runs counts sealed runs awaiting compaction.
	Runs int `json:"runs"`
	// BackgroundCompaction reports whether the compactor goroutine is live.
	BackgroundCompaction bool `json:"backgroundCompaction"`
	// PartialMerges and FullRebuilds split stpq_ingest_merges_total by path.
	PartialMerges int64 `json:"partialMerges"`
	FullRebuilds  int64 `json:"fullRebuilds"`
	// Compactions counts completed background compactions; WriteStalls
	// counts Applies that had to merge synchronously under backpressure.
	Compactions int64 `json:"compactions"`
	WriteStalls int64 `json:"writeStalls"`
	// LastMergeSeconds is the duration of the most recent merge;
	// LastStallSeconds is the write-path stall it imposed (the full merge
	// duration for foreground merges, just the swap for background ones).
	LastMergeSeconds float64 `json:"lastMergeSeconds"`
	LastStallSeconds float64 `json:"lastStallSeconds"`
}

// IngestStatus returns the current write-path summary.
func (db *DB) IngestStatus() IngestStatus {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := IngestStatus{
		WALAttached:          db.wal != nil,
		WALSeq:               db.walSeq,
		PendingOps:           db.pendingOpsLocked(),
		Runs:                 len(db.runs),
		BackgroundCompaction: db.compactDone != nil,
		LastMergeSeconds:     db.lastMergeSecs,
		LastStallSeconds:     db.lastStallSecs,
	}
	if db.mergeSeconds != nil { // a mutation has arrived: the series exist
		st.PartialMerges = db.partialMerges.Value()
		st.FullRebuilds = db.fullRebuilds.Value()
		st.Compactions = db.compactions.Value()
		st.WriteStalls = db.writeStalls.Value()
	}
	return st
}
