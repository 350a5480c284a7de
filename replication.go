package stpq

// replication.go is the public log-shipping surface. A leader DB (one with
// an attached WAL) exposes its sealed segments for followers to fetch;
// a follower DB — an ordinary built DB without a WAL of its own — applies
// the shipped records through ApplyReplicated, which routes them through
// the same validate/apply path crash recovery uses, so a follower's state
// after applying seq s is byte-identical to the leader's state at s.
// Over the network the leader's stpqd serves WALSealedSegment on GET
// /wal/segments (internal/serve), and internal/cluster's follower loop
// fetches from it and applies.

import (
	"encoding/json"
	"errors"
	"fmt"
)

// Replication error sentinels.
var (
	// ErrReplicationGap is returned by ApplyReplicated when the shipped
	// record does not directly follow the last applied sequence — the
	// leader's log was compacted past the follower's position, and the
	// follower must re-seed from a checkpoint.
	ErrReplicationGap = errors.New("stpq: replication gap")
)

// ApplyReplicated applies one shipped WAL record to a follower DB. Records
// at or below the applied watermark are skipped (idempotent re-delivery);
// a record that skips ahead fails with ErrReplicationGap. The mutations
// run through the same validation and apply path as crash recovery, so
// the follower converges on the leader's exact state.
func (db *DB) ApplyReplicated(seq uint64, payload []byte) error {
	db.ingestMu.Lock()
	defer db.ingestMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.built {
		return fmt.Errorf("%w: ApplyReplicated before Build", ErrNotBuilt)
	}
	if seq <= db.walSeq {
		return nil
	}
	if seq != db.walSeq+1 {
		return fmt.Errorf("%w: record %d follows applied seq %d", ErrReplicationGap, seq, db.walSeq)
	}
	var muts []Mutation
	if err := json.Unmarshal(payload, &muts); err != nil {
		return fmt.Errorf("stpq: replicated record %d: %w", seq, err)
	}
	if err := db.validateMutationsLocked(muts); err != nil {
		return fmt.Errorf("stpq: replicated record %d: %w", seq, err)
	}
	if err := db.applyBatchLocked(muts, true); err != nil {
		return fmt.Errorf("stpq: replicated record %d: %w", seq, err)
	}
	db.walSeq = seq
	db.metrics.Counter("stpq_replica_applied_total").Add(int64(len(muts)))
	db.metrics.Gauge("stpq_replica_applied_seq").Set(float64(seq))
	return nil
}

// WALRotate seals the active WAL segment so every record appended so far
// becomes fetchable by WALSealedSegment. Leaders call it periodically to
// bound follower staleness; a no-op when the active segment is empty.
func (db *DB) WALRotate() error {
	db.mu.RLock()
	wal := db.wal
	db.mu.RUnlock()
	if wal == nil {
		return ErrNoWAL
	}
	return wal.Rotate()
}

// WALSealedSegment returns the raw bytes of the oldest sealed WAL segment
// holding records at or after from, along with the segment's first
// sequence number. It returns (0, nil, nil) when no sealed segment holds
// such records — the follower has caught up to the active segment.
func (db *DB) WALSealedSegment(from uint64) (uint64, []byte, error) {
	db.mu.RLock()
	wal := db.wal
	db.mu.RUnlock()
	if wal == nil {
		return 0, nil, ErrNoWAL
	}
	return wal.SealedSegment(from)
}
