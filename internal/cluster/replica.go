package cluster

// replica.go is the follower side of WAL log shipping. A replica pulls
// sealed WAL segments from its leader, verifies them strictly (a torn
// segment over the network is an error, not a clean shutdown), and
// replays each record through the DB's crash-recovery apply path. The
// applied sequence is the replication watermark the coordinator reads
// for lag-aware routing.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"stpq"
	"stpq/internal/ingest"
)

// SegmentSource fetches sealed WAL segments; *Client implements it. Tests
// substitute fault-injecting sources (torn segments, flaky transport).
type SegmentSource interface {
	Segment(from uint64) (SegmentReply, error)
}

// ReplicaConfig configures a log-shipping follower.
type ReplicaConfig struct {
	// DB is the follower's database (built from the same dataset as the
	// leader's, no WAL of its own — the leader's log is the log of record).
	DB *stpq.DB
	// Source serves sealed segments (normally a *Client on the leader).
	Source SegmentSource
	// Interval is the poll period when the leader has nothing new
	// (default 250ms).
	Interval time.Duration
	// Logf, when non-nil, receives replication progress and error lines.
	Logf func(format string, args ...any)
}

// Replica is a running log-shipping loop.
type Replica struct {
	cfg  ReplicaConfig
	stop chan struct{}
	done chan struct{}

	mu      sync.Mutex
	lastErr error
	once    sync.Once
}

// StartReplica begins pulling segments from the source and applying them
// to the DB until Close.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.DB == nil || cfg.Source == nil {
		return nil, errors.New("cluster: replica needs a DB and a segment source")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 250 * time.Millisecond
	}
	r := &Replica{cfg: cfg, stop: make(chan struct{}), done: make(chan struct{})}
	go r.loop()
	return r, nil
}

// Close stops the replication loop and waits for it to exit.
func (r *Replica) Close() {
	r.once.Do(func() { close(r.stop) })
	<-r.done
}

// Err returns the most recent replication error, nil when healthy.
func (r *Replica) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// AppliedSeq returns the replica's replication watermark.
func (r *Replica) AppliedSeq() uint64 { return r.cfg.DB.WALSeq() }

func (r *Replica) setErr(err error) {
	r.mu.Lock()
	r.lastErr = err
	r.mu.Unlock()
	if err != nil && r.cfg.Logf != nil {
		r.cfg.Logf("cluster: replica: %v", err)
	}
}

func (r *Replica) loop() {
	defer close(r.done)
	for {
		progressed, err := r.fetchOnce()
		r.setErr(err)
		wait := r.cfg.Interval
		if progressed && err == nil {
			// The leader may have more sealed history ready; drain it.
			wait = 0
		}
		if err != nil {
			// Back off on errors so a wedged leader isn't hammered.
			wait = 4 * r.cfg.Interval
		}
		if wait == 0 {
			select {
			case <-r.stop:
				return
			default:
			}
			continue
		}
		select {
		case <-r.stop:
			return
		case <-time.After(wait):
		}
	}
}

// fetchOnce pulls and applies at most one sealed segment. It reports
// whether any record was applied.
func (r *Replica) fetchOnce() (bool, error) {
	from := r.cfg.DB.WALSeq() + 1
	reply, err := r.cfg.Source.Segment(from)
	if err != nil {
		return false, fmt.Errorf("fetch segment from seq %d: %w", from, err)
	}
	if reply.FirstSeq == 0 {
		return false, nil // leader has no sealed history ≥ from yet
	}
	recs, err := ingest.ScanRecords(reply.Data, reply.FirstSeq)
	if err != nil {
		// Torn or corrupt over the wire: refuse to apply anything.
		return false, fmt.Errorf("segment %d: %w", reply.FirstSeq, err)
	}
	applied := false
	for _, rec := range recs {
		if rec.Seq < from {
			continue // overlap with already-applied history; idempotent skip
		}
		if err := r.cfg.DB.ApplyReplicated(rec.Seq, rec.Payload); err != nil {
			if errors.Is(err, stpq.ErrReplicationGap) {
				return applied, fmt.Errorf("segment %d: gap at seq %d (leader compacted past us): %w",
					reply.FirstSeq, rec.Seq, err)
			}
			return applied, fmt.Errorf("apply seq %d: %w", rec.Seq, err)
		}
		applied = true
	}
	return applied, nil
}
