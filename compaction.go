package stpq

// compaction.go implements the generational merge pipeline that replaced
// the O(N) rebuild-on-flush write path (see DESIGN.md §15). Pending
// mutations live in up to three tiers — the mutable delta, sealed
// immutable runs, and the bulk-loaded base — and mergeLocked folds the
// first two into the third one of two ways:
//
//   - Partial merge (the default): the net mutations are batch-applied
//     into copy-on-write clones of the base trees via rtree.Insert/Delete,
//     so only the touched subtree pages are rewritten and the merge costs
//     O(delta·log N) instead of O(N). Older snapshots keep reading the
//     original pages through the CowDisk base.
//   - Full rebuild: the net mutations are folded into the raw slices and
//     the whole engine is re-bulk-loaded — the pre-generational behaviour,
//     used as the degradation fallback and for vocabulary-growing
//     batches.
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

// netOps is the net effect of a stack of pending layers: the newest write
// per id wins, upsert-over-delete and delete-over-upsert folds applied.
// Features keep their interned keyword sets — partial merges never grow
// the vocabulary, so no re-interning happens on this path.
type netOps struct {
	deadObj  map[int64]struct{}
	upsObj   map[int64]index.Object
	deadFeat []map[int64]struct{}
	upsFeat  []map[int64]index.Feature
	// count is the number of net index operations the merge will perform,
	// feeding the drift accounting.
	count int
}

// collectNet folds the layers (oldest first) into their net effect.
func collectNet(layers []*ingest.Layer, numSets int) *netOps {
	net := &netOps{
		deadObj:  make(map[int64]struct{}),
		upsObj:   make(map[int64]index.Object),
		deadFeat: make([]map[int64]struct{}, numSets),
		upsFeat:  make([]map[int64]index.Feature, numSets),
	}
	for i := 0; i < numSets; i++ {
		net.deadFeat[i] = make(map[int64]struct{})
		net.upsFeat[i] = make(map[int64]index.Feature)
	}
	for _, l := range layers {
		// Tombstones first: an upsert records both a tombstone (hiding older
		// generations) and the new value, so within one layer the upsert must
		// survive its own tombstone.
		for id := range l.DeadObjects {
			net.deadObj[id] = struct{}{}
			delete(net.upsObj, id)
		}
		for id, o := range l.Objects {
			net.upsObj[id] = o
		}
		for i := range l.Sets {
			for id := range l.Sets[i].Dead {
				net.deadFeat[i][id] = struct{}{}
				delete(net.upsFeat[i], id)
			}
			for id, f := range l.Sets[i].Feats {
				net.upsFeat[i][id] = f
			}
		}
	}
	net.count = len(net.deadObj) + len(net.upsObj)
	for i := 0; i < numSets; i++ {
		net.count += len(net.deadFeat[i]) + len(net.upsFeat[i])
	}
	return net
}

// pendingLayersLocked returns the pending generations oldest first: sealed
// runs, then a view of the active delta. The delta view shares the live
// maps, so it is only valid while db.mu is held and the delta is dropped
// by the same critical section (mergeLocked does both).
func (db *DB) pendingLayersLocked() []*ingest.Layer {
	layers := make([]*ingest.Layer, 0, len(db.runs)+1)
	for _, r := range db.runs {
		r := r
		layers = append(layers, &r.Layer)
	}
	if db.delta != nil && !db.delta.Empty() {
		layers = append(layers, deltaView(db.delta))
	}
	return layers
}

// deltaView wraps the live delta as a layer without copying. Only the
// synchronous merge path uses it; publication snapshots instead.
func deltaView(d *ingest.Delta) *ingest.Layer {
	l := &ingest.Layer{
		Objects:     d.Objects,
		DeadObjects: d.DeadObjects,
		Sets:        make([]ingest.LayerSet, len(d.Sets)),
	}
	for i, s := range d.Sets {
		l.Sets[i] = ingest.LayerSet{Feats: s.Feats, Dead: s.Dead}
	}
	return l
}

// mergeLocked folds every pending generation (plus an optional trailing
// batch that could not go through the delta) into the base and publishes
// the merged engine. forceFull bypasses the incremental path — required
// when the batch grows the vocabulary or the caller (Rebuild) must fold
// newly added raw data in. A failed partial merge falls back to the full
// rebuild: the copy-on-write clones are discarded, so the base is still
// intact. Callers hold ingestMu and db.mu.
func (db *DB) mergeLocked(extra []Mutation, forceFull bool) error {
	start := time.Now()
	net := collectNet(db.pendingLayersLocked(), len(db.setNames))
	full := forceFull || len(extra) > 0 || !db.canPartialMergeLocked(net)
	var err error
	if full {
		err = db.fullMergeLocked(net, extra)
	} else {
		if err = db.partialMergeLocked(net); err != nil {
			full = true
			err = db.fullMergeLocked(net, nil)
		}
	}
	if err != nil {
		return err
	}
	db.observeMergeLocked(time.Since(start), full)
	return nil
}

// observeMergeLocked records one completed foreground merge in the
// metrics and resets the pending-state gauges.
func (db *DB) observeMergeLocked(took time.Duration, full bool) {
	db.lastMergeSecs = took.Seconds()
	if db.mergeSeconds != nil {
		db.mergeSeconds.Observe(db.lastMergeSecs)
	}
	if db.ingestMerges != nil {
		db.ingestMerges.Inc()
	}
	if full {
		if db.fullRebuilds != nil {
			db.fullRebuilds.Inc()
		}
	} else if db.partialMerges != nil {
		db.partialMerges.Inc()
	}
	db.metrics.Gauge("stpq_ingest_delta_objects").Set(0)
	db.metrics.Gauge("stpq_ingest_delta_ops").Set(0)
	db.metrics.Gauge("stpq_ingest_runs").Set(0)
}

// fullMergeLocked folds the net mutations (and the trailing batch) into
// the raw slices and re-bulk-loads the whole engine.
func (db *DB) fullMergeLocked(net *netOps, extra []Mutation) error {
	db.foldNetIntoRawLocked(net)
	db.foldExtraIntoRawLocked(extra)
	// Intern into a clone so snapshots of the previous generation keep a
	// stable vocabulary (same contract as Rebuild).
	db.vocab = db.vocab.Clone()
	db.delta = nil
	db.runs = nil
	return db.buildLocked()
}

// foldNetIntoRawLocked applies the net mutations to the raw object and
// feature slices, decoding interned keyword sets back to strings. Both
// merge paths call it so the raw data always mirrors the base indexes —
// a later Rebuild or full merge starts from the merged state.
func (db *DB) foldNetIntoRawLocked(net *netOps) {
	upsObj := make(map[int64]Object, len(net.upsObj))
	for id, o := range net.upsObj {
		upsObj[id] = Object{ID: id, X: o.Location.X, Y: o.Location.Y}
	}
	db.objects = foldSlice(db.objects, net.deadObj, upsObj, func(o Object) int64 { return o.ID })
	for i, name := range db.setNames {
		ups := make(map[int64]Feature, len(net.upsFeat[i]))
		for id, f := range net.upsFeat[i] {
			ups[id] = Feature{
				ID: id, X: f.Location.X, Y: f.Location.Y,
				Score:    f.Score,
				Keywords: db.vocab.Decode(f.Keywords),
			}
		}
		db.sets[name] = foldSlice(db.sets[name], net.deadFeat[i], ups, func(f Feature) int64 { return f.ID })
	}
}

// foldExtraIntoRawLocked applies a trailing mutation batch that never
// entered the delta (vocabulary-growing batches) on top of the net fold.
func (db *DB) foldExtraIntoRawLocked(extra []Mutation) {
	if len(extra) == 0 {
		return
	}
	deadObj := make(map[int64]struct{})
	upsObj := make(map[int64]Object)
	deadFeat := make([]map[int64]struct{}, len(db.setNames))
	upsFeat := make([]map[int64]Feature, len(db.setNames))
	for i := range db.setNames {
		deadFeat[i] = make(map[int64]struct{})
		upsFeat[i] = make(map[int64]Feature)
	}
	for _, m := range extra {
		switch m.Op {
		case OpUpsertObject:
			deadObj[m.Object.ID] = struct{}{}
			upsObj[m.Object.ID] = *m.Object
		case OpDeleteObject:
			deadObj[m.ID] = struct{}{}
			delete(upsObj, m.ID)
		case OpUpsertFeature:
			i := db.setPosLocked(m.Set)
			deadFeat[i][m.Feature.ID] = struct{}{}
			upsFeat[i][m.Feature.ID] = *m.Feature
		case OpDeleteFeature:
			i := db.setPosLocked(m.Set)
			deadFeat[i][m.ID] = struct{}{}
			delete(upsFeat[i], m.ID)
		}
	}
	db.objects = foldSlice(db.objects, deadObj, upsObj, func(o Object) int64 { return o.ID })
	for i, name := range db.setNames {
		db.sets[name] = foldSlice(db.sets[name], deadFeat[i], upsFeat[i], func(f Feature) int64 { return f.ID })
	}
}

// mergeDriftRatio is the degradation threshold: a full rebuild replaces the
// incremental path once the net mutations merged incrementally since the
// last bulk load exceed this fraction of the live data size.
const mergeDriftRatio = 0.5

// canPartialMergeLocked decides whether the pending net mutations may be
// merged incrementally: when structurally possible and the tree-quality
// heuristic passes — bounded cumulative drift, heights within one level of
// the bulk-loaded baseline, and a bounded overflow-split count.
// Signature-mode indexes always rebuild (sharded DBs have no write path).
func (db *DB) canPartialMergeLocked(net *netOps) bool {
	if db.base == nil || db.objLoc == nil || net == nil {
		return false
	}
	for i := range db.setNames {
		g := db.base.FeatureGroups()[i]
		if len(g.Parts()) != 1 || !g.Part(0).CanMerge() {
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
	if float64(db.incrOps+net.count) > mergeDriftRatio*float64(live+net.count) {
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
// insertion has noticeably loosened the packing. An unknown baseline
// counts as degraded (the rebuild re-establishes it).
func (db *DB) treesDegradedLocked() bool {
	if len(db.baseHeights) != 1+len(db.setNames) {
		return true
	}
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
func (db *DB) partialMergeLocked(net *netOps) error {
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
func applyNetOps(oidx *index.ObjectIndex, fidxs []*index.FeatureIndex, net *netOps,
	objLoc map[int64]geo.Point, featLoc []map[int64]geo.Point, p *ingest.Pacer) error {
	for _, id := range sortedIDs(net.deadObj) {
		loc, ok := objLoc[id]
		if !ok {
			continue
		}
		if _, err := oidx.Delete(id, loc); err != nil {
			return fmt.Errorf("stpq: merge delete object %d: %w", id, err)
		}
		p.Tick()
	}
	for _, id := range sortedIDs(net.upsObj) {
		if err := oidx.Insert(net.upsObj[id]); err != nil {
			return fmt.Errorf("stpq: merge insert object %d: %w", id, err)
		}
		p.Tick()
	}
	for i, fx := range fidxs {
		for _, id := range sortedIDs(net.deadFeat[i]) {
			loc, ok := featLoc[i][id]
			if !ok {
				continue
			}
			if _, err := fx.Delete(id, loc); err != nil {
				return fmt.Errorf("stpq: merge delete feature %d of set %d: %w", id, i, err)
			}
			p.Tick()
		}
		for _, id := range sortedIDs(net.upsFeat[i]) {
			if err := fx.Insert(net.upsFeat[i][id]); err != nil {
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

// swapMergedLocked publishes merged clone indexes as the new base
// generation: it assembles the engine, folds the net mutations into the
// raw slices and location maps, advances the drift accounting and bumps
// the merge epoch. compactedRuns < 0 means a foreground merge that
// consumed every pending generation; otherwise only the first
// compactedRuns sealed runs were folded (background compaction) and the
// remainder — plus the active delta — is re-published over the new base. Callers hold ingestMu and db.mu.
func (db *DB) swapMergedLocked(oidx *index.ObjectIndex, fidxs []*index.FeatureIndex, net *netOps, compactedRuns int) error {
	eng, err := core.NewEngine(oidx, fidxs, db.cfg.coreOptions())
	if err != nil {
		return err
	}
	oidx.AttachMetrics(db.metrics, "objects")
	for i, name := range db.setNames {
		eng.FeatureGroups()[i].AttachMetrics(db.metrics, poolLabel(name))
	}
	db.foldNetIntoRawLocked(net)
	for id := range net.deadObj {
		delete(db.objLoc, id)
	}
	for id, o := range net.upsObj {
		db.objLoc[id] = o.Location
	}
	for i := range db.setNames {
		for id := range net.deadFeat[i] {
			delete(db.featLoc[i], id)
		}
		for id, f := range net.upsFeat[i] {
			db.featLoc[i][id] = f.Location
		}
	}
	db.base = eng
	db.incrOps += net.count
	db.incrSplits += oidx.Tree().Splits()
	for _, fx := range fidxs {
		db.incrSplits += fx.Tree().Splits()
	}
	db.mergeEpoch++
	if compactedRuns < 0 {
		db.runs = nil
		db.delta = nil
		db.engine = eng
		db.gen++
		db.kwTables = nil
		return nil
	}
	db.runs = append([]*ingest.Run(nil), db.runs[compactedRuns:]...)
	db.metrics.Gauge("stpq_ingest_runs").Set(float64(len(db.runs)))
	if db.pendingLocked() {
		return db.publishPendingLocked()
	}
	db.engine = eng
	db.gen++
	db.kwTables = nil
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
	layers := make([]*ingest.Layer, nruns)
	for i, r := range db.runs[:nruns] {
		layers[i] = &r.Layer
	}
	net := collectNet(layers, len(db.setNames))
	partialOK := db.canPartialMergeLocked(net)
	objLoc := pinLocs(db.objLoc, net.deadObj)
	featLoc := make([]map[int64]geo.Point, len(db.featLoc))
	for i := range db.featLoc {
		featLoc[i] = pinLocs(db.featLoc[i], net.deadFeat[i])
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
			err = db.mergeLocked(nil, true)
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
		if db.compactsLost != nil {
			db.compactsLost.Inc()
		}
		return true, nil
	}
	if err := db.swapMergedLocked(oidx, fidxs, net, nruns); err != nil {
		return false, err
	}
	db.lastMergeSecs = time.Since(start).Seconds()
	db.lastStallSecs = time.Since(swapStart).Seconds()
	if db.mergeSeconds != nil {
		db.mergeSeconds.Observe(db.lastMergeSecs)
	}
	if db.compactions != nil {
		db.compactions.Inc()
	}
	if db.partialMerges != nil {
		db.partialMerges.Inc()
	}
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
		Runs:                 len(db.runs),
		BackgroundCompaction: db.compactDone != nil,
		LastMergeSeconds:     db.lastMergeSecs,
		LastStallSeconds:     db.lastStallSecs,
	}
	for _, r := range db.runs {
		st.PendingOps += r.Ops
	}
	if db.delta != nil {
		st.PendingOps += db.delta.Ops()
	}
	if db.partialMerges != nil {
		st.PartialMerges = db.partialMerges.Value()
	}
	if db.fullRebuilds != nil {
		st.FullRebuilds = db.fullRebuilds.Value()
	}
	if db.compactions != nil {
		st.Compactions = db.compactions.Value()
	}
	if db.writeStalls != nil {
		st.WriteStalls = db.writeStalls.Value()
	}
	return st
}
