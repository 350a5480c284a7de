package cluster

// replica.go is the follower side of WAL log shipping. A replica pulls
// sealed WAL segments from its leader's GET /wal/segments, verifies them
// strictly (a torn segment over the network is an error, not a clean
// shutdown), and replays each record through the DB's crash-recovery
// apply path. The applied sequence is the replication watermark the
// coordinator reads from each replica's /info for lag-aware routing.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"stpq"
	"stpq/internal/ingest"
)

// SegmentReply is one fetched sealed WAL segment: its first sequence
// number and its raw bytes. A zero FirstSeq means the leader holds no
// sealed segment with the records asked for yet.
type SegmentReply struct {
	FirstSeq uint64
	Data     []byte
}

// SegmentSource fetches sealed WAL segments; *Leader implements it. Tests
// substitute fault-injecting sources (torn segments, flaky transport).
type SegmentSource interface {
	Segment(from uint64) (SegmentReply, error)
}

// maxSegment caps a fetched segment body. Segments seal at
// ingest.DefaultSegmentBytes (4 MiB), so 64 MiB leaves ample headroom
// while refusing a runaway body before all of it is in memory.
const maxSegment = 64 << 20

// Leader fetches sealed WAL segments from a leader's HTTP listener.
type Leader struct {
	base   string
	client *http.Client
}

// NewLeader returns the segment source for the leader at addr ("host:port",
// its stpqd -addr). timeout bounds each fetch; 0 uses DefaultTimeout.
func NewLeader(addr string, timeout time.Duration) *Leader {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Leader{base: "http://" + addr, client: &http.Client{Timeout: timeout}}
}

// Segment fetches the oldest sealed segment holding records at or after
// from: GET /wal/segments?from=N, answered 200 with the segment and its
// X-First-Seq, or 204 when there is none yet.
func (l *Leader) Segment(from uint64) (SegmentReply, error) {
	resp, err := l.client.Get(l.base + "/wal/segments?from=" + strconv.FormatUint(from, 10))
	if err != nil {
		return SegmentReply{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSegment+1))
	switch {
	case err != nil:
		return SegmentReply{}, err
	case resp.StatusCode == http.StatusNoContent:
		return SegmentReply{}, nil
	case resp.StatusCode != http.StatusOK:
		if len(data) > 256 {
			data = data[:256]
		}
		return SegmentReply{}, fmt.Errorf("leader %s answered HTTP %d: %s", l.base, resp.StatusCode, bytes.TrimSpace(data))
	case len(data) > maxSegment:
		return SegmentReply{}, fmt.Errorf("leader %s sent a segment over %d bytes", l.base, maxSegment)
	}
	first, err := strconv.ParseUint(resp.Header.Get("X-First-Seq"), 10, 64)
	if err != nil || first == 0 {
		return SegmentReply{}, fmt.Errorf("leader %s sent a segment without a first sequence number (X-First-Seq %q)",
			l.base, resp.Header.Get("X-First-Seq"))
	}
	return SegmentReply{FirstSeq: first, Data: data}, nil
}

// Close drops the idle connection to the leader.
func (l *Leader) Close() { l.client.CloseIdleConnections() }

// ReplicaConfig configures a log-shipping follower.
type ReplicaConfig struct {
	// DB is the follower's database (built from the same dataset as the
	// leader's, no WAL of its own — the leader's log is the log of record).
	DB *stpq.DB
	// Source serves sealed segments (normally a *Leader).
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
