// Package ingest implements the live write path of the library: a
// checksummed write-ahead log for durability (wal.go), an in-memory delta
// layer that absorbs upserts and deletes between index rebuilds (delta.go),
// and the sealed runs and layer folds a published base + delta generation
// is assembled from (run.go). The stpq package wires these into
// DB.Apply/Flush and WAL-aware Open; see DESIGN.md §11 for the format and
// lifecycle.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"stpq/internal/storage"
)

// WAL format. Each segment file wal-<firstseq:016x>.seg holds a run of
// records with consecutive sequence numbers starting at <firstseq>:
//
//	[u32 payload length][u32 CRC32-C][u64 seq][payload]
//
// all little-endian; the checksum covers the seq bytes plus the payload, so
// a record torn anywhere — length, checksum, seq or body — fails
// verification. A torn or half-written record is legal only at the very
// tail of the newest segment (the crash window of the last append); Open
// truncates it away. The same damage anywhere else is corruption and
// surfaces as ErrCorrupt.

const (
	walRecordHeader = 16
	walSegPrefix    = "wal-"
	walSegSuffix    = ".seg"
	// walMaxRecordBytes bounds a single record so a torn length field
	// cannot make the scanner allocate absurd buffers.
	walMaxRecordBytes = 64 << 20
)

// DefaultSegmentBytes is the segment rotation threshold.
const DefaultSegmentBytes = 4 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports WAL damage outside the legal torn-tail window.
var ErrCorrupt = errors.New("ingest: corrupt WAL")

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("ingest: WAL closed")

// WALOptions tunes the log.
type WALOptions struct {
	// SegmentBytes rotates to a new segment file once the active one
	// exceeds this size (default DefaultSegmentBytes).
	SegmentBytes int64
	// GroupCommit batches fsyncs: an append becomes durable at the next
	// group flush, at most this long after it was written. 0 fsyncs every
	// append inline (maximum durability, minimum throughput).
	GroupCommit time.Duration
	// FsyncObserver, when set, receives the latency of every fsync in
	// seconds (wired to the stpq_ingest_wal_fsync_seconds histogram).
	FsyncObserver func(seconds float64)
	// AppendObserver, when set, receives the on-disk size (header included)
	// of every successfully written record (wired to the
	// stpq_wal_appends_total / stpq_wal_bytes_total counters).
	AppendObserver func(bytes int)
	// RetainSegments keeps the newest N sealed segments alive across
	// DropThrough even when a checkpoint has made their records redundant.
	// Log-shipping followers fetch sealed segments, so a replicating leader
	// must not garbage-collect them the moment a checkpoint lands; 0 keeps
	// none beyond the checkpoint (the pre-replication behaviour).
	RetainSegments int
}

// WAL is an append-only, checksummed, segmented log. Append is safe for
// concurrent use; Replay and DropThrough serialize against appends.
type WAL struct {
	dir  string
	opts WALOptions

	mu       sync.Mutex
	f        *os.File // active segment
	first    uint64   // first seq of the active segment
	size     int64    // bytes written to the active segment
	next     uint64   // next sequence number to assign
	pending  []chan error
	armed    bool // a group flush is scheduled
	closed   bool
	scratch  []byte // record assembly buffer
	segFirst []uint64
}

// OpenWAL opens (or creates) the log in dir. It scans the existing
// segments, truncates a torn tail record in the newest one, and positions
// the append cursor after the last durable record. Sequence numbers start
// at 1 in an empty log.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{dir: dir, opts: opts, next: 1}
	firsts, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	w.segFirst = firsts
	if len(firsts) == 0 {
		if err := w.openSegment(1); err != nil {
			return nil, err
		}
		return w, nil
	}
	// Verify segment boundary contiguity, then scan the newest segment to
	// find the durable tail (earlier segments are verified on Replay).
	for i := 1; i < len(firsts); i++ {
		if firsts[i] <= firsts[i-1] {
			return nil, fmt.Errorf("%w: segment order %016x after %016x", ErrCorrupt, firsts[i], firsts[i-1])
		}
	}
	last := firsts[len(firsts)-1]
	recs, goodLen, _, err := scanSegment(w.segPath(last), last, true)
	if err != nil {
		return nil, err
	}
	path := w.segPath(last)
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.Size() > goodLen {
		if err := os.Truncate(path, goodLen); err != nil {
			return nil, fmt.Errorf("ingest: truncating torn WAL tail: %w", err)
		}
	}
	w.first = last
	w.size = goodLen
	w.next = last + uint64(len(recs))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w.f = f
	return w, nil
}

// Dir returns the log directory.
func (w *WAL) Dir() string { return w.dir }

// NextSeq returns the sequence number the next append will receive.
func (w *WAL) NextSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.next
}

// segPath returns the file path of the segment starting at seq.
func (w *WAL) segPath(seq uint64) string {
	return filepath.Join(w.dir, fmt.Sprintf("%s%016x%s", walSegPrefix, seq, walSegSuffix))
}

// listSegments returns the first-seq of every segment in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var firsts []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, walSegPrefix) || !strings.HasSuffix(name, walSegSuffix) {
			continue
		}
		hexa := strings.TrimSuffix(strings.TrimPrefix(name, walSegPrefix), walSegSuffix)
		seq, err := strconv.ParseUint(hexa, 16, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: segment name %q", ErrCorrupt, name)
		}
		firsts = append(firsts, seq)
	}
	sort.Slice(firsts, func(i, j int) bool { return firsts[i] < firsts[j] })
	return firsts, nil
}

// openSegment creates a fresh segment whose first record will carry seq,
// and fsyncs the directory so the file itself survives a crash.
func (w *WAL) openSegment(seq uint64) error {
	f, err := os.OpenFile(w.segPath(seq), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := storage.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.first = seq
	w.size = 0
	w.segFirst = append(w.segFirst, seq)
	return nil
}

// Append writes one record and returns its sequence number once the record
// is durable — immediately after an inline fsync, or after the next group
// flush when GroupCommit is set.
func (w *WAL) Append(payload []byte) (uint64, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	if w.size > 0 && w.size+int64(walRecordHeader+len(payload)) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.mu.Unlock()
			return 0, err
		}
	}
	seq := w.next
	rec := w.encodeRecord(seq, payload)
	if _, err := w.f.Write(rec); err != nil {
		w.mu.Unlock()
		return 0, err
	}
	w.next++
	w.size += int64(len(rec))
	if w.opts.AppendObserver != nil {
		w.opts.AppendObserver(len(rec))
	}
	if w.opts.GroupCommit <= 0 {
		err := w.syncLocked()
		w.mu.Unlock()
		return seq, err
	}
	done := make(chan error, 1)
	w.pending = append(w.pending, done)
	if !w.armed {
		w.armed = true
		time.AfterFunc(w.opts.GroupCommit, w.groupFlush)
	}
	w.mu.Unlock()
	return seq, <-done
}

// encodeRecord assembles the framed record into the scratch buffer.
func (w *WAL) encodeRecord(seq uint64, payload []byte) []byte {
	n := walRecordHeader + len(payload)
	if cap(w.scratch) < n {
		w.scratch = make([]byte, n)
	}
	rec := w.scratch[:n]
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(rec[8:16], seq)
	copy(rec[16:], payload)
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(rec[8:], crcTable))
	return rec
}

// groupFlush is the deferred fsync of a commit batch: every append since
// the previous flush becomes durable (and is acknowledged) at once.
func (w *WAL) groupFlush() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.armed = false
	waiters := w.pending
	w.pending = nil
	if len(waiters) == 0 {
		return
	}
	err := w.syncLocked()
	for _, ch := range waiters {
		ch <- err
	}
}

// syncLocked fsyncs the active segment, reporting the latency.
func (w *WAL) syncLocked() error {
	start := time.Now()
	err := w.f.Sync()
	if obs := w.opts.FsyncObserver; obs != nil {
		obs(time.Since(start).Seconds())
	}
	return err
}

// rotateLocked seals the active segment (fsyncing it, which also resolves
// any pending group) and opens the next one.
func (w *WAL) rotateLocked() error {
	if err := w.syncLocked(); err != nil {
		return err
	}
	for _, ch := range w.pending {
		ch <- nil
	}
	w.pending = nil
	if err := w.f.Close(); err != nil {
		return err
	}
	return w.openSegment(w.next)
}

// Rotate seals the active segment — fsyncing it, acknowledging any pending
// group commit — and opens a fresh one, so the sealed bytes become visible
// to SealedSegment. A no-op when the active segment is empty (rotating it
// would recreate a segment with the same first sequence number).
func (w *WAL) Rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.size == 0 {
		return nil
	}
	return w.rotateLocked()
}

// SealedSegment returns the first-seq and raw bytes of the earliest sealed
// segment whose records reach seq `from` or beyond — the log-shipping fetch
// primitive. It returns (0, nil, nil) when no sealed segment covers the
// request (the records live in the active segment, or do not exist yet).
// The returned bytes are a whole verified-framing segment file; the caller
// re-verifies checksums with ScanRecords after transport.
func (w *WAL) SealedSegment(from uint64) (uint64, []byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, nil, ErrClosed
	}
	for i, first := range w.segFirst {
		if i == len(w.segFirst)-1 {
			break // active segment: never shipped
		}
		if last := w.segFirst[i+1] - 1; last < from {
			continue
		}
		data, err := os.ReadFile(w.segPath(first))
		if err != nil {
			return 0, nil, err
		}
		return first, data, nil
	}
	return 0, nil, nil
}

// SealedSegments returns the first-seq of every sealed segment, ascending
// (the active segment is excluded).
func (w *WAL) SealedSegments() []uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.segFirst) == 0 {
		return nil
	}
	out := make([]uint64, len(w.segFirst)-1)
	copy(out, w.segFirst[:len(w.segFirst)-1])
	return out
}

// Record is one decoded WAL record, as surfaced by ScanRecords.
type Record struct {
	Seq     uint64
	Payload []byte
}

// ScanRecords verifies and decodes a shipped segment's raw bytes. Unlike
// the crash-recovery scan, it is strict: any framing, checksum or sequence
// damage — including a torn tail — is an error, because a fetched segment
// was sealed by the leader and must arrive intact.
func ScanRecords(data []byte, firstSeq uint64) ([]Record, error) {
	recs, goodLen, torn, err := scanBytes(data, firstSeq, false)
	if err != nil {
		return nil, err
	}
	if torn || goodLen != int64(len(data)) {
		return nil, fmt.Errorf("%w: shipped segment damaged at offset %d", ErrCorrupt, goodLen)
	}
	out := make([]Record, len(recs))
	for i, r := range recs {
		out[i] = Record{Seq: r.seq, Payload: r.payload}
	}
	return out, nil
}

// Replay invokes fn for every durable record with seq ≥ from, in order.
// Records damaged at the tail of the newest segment are skipped (they were
// never acknowledged); damage anywhere else returns ErrCorrupt.
func (w *WAL) Replay(from uint64, fn func(seq uint64, payload []byte) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, first := range w.segFirst {
		isLast := i == len(w.segFirst)-1
		// Skip whole segments that end before the replay window.
		if !isLast && w.segFirst[i+1] <= from {
			continue
		}
		recs, _, _, err := scanSegment(w.segPath(first), first, isLast)
		if err != nil {
			return err
		}
		if !isLast && first+uint64(len(recs)) != w.segFirst[i+1] {
			return fmt.Errorf("%w: segment %016x ends at seq %d, next starts at %d",
				ErrCorrupt, first, first+uint64(len(recs))-1, w.segFirst[i+1])
		}
		for _, r := range recs {
			if r.seq < from {
				continue
			}
			if err := fn(r.seq, r.payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// DropThrough deletes sealed segments whose records all have seq ≤ through
// — the log-trimming step after a checkpoint makes those records redundant
// — except for the newest Options.RetainSegments of them, which survive so
// log-shipping followers can still fetch recent history. The active segment
// is never removed.
func (w *WAL) DropThrough(through uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	// Pass 1: find the deletable segments (sealed, entirely ≤ through).
	var deletable []int
	for i := range w.segFirst {
		if i == len(w.segFirst)-1 {
			break // active
		}
		if w.segFirst[i+1]-1 <= through {
			deletable = append(deletable, i)
		}
	}
	// Pass 2: spare the newest RetainSegments of them.
	if keep := w.opts.RetainSegments; keep > 0 {
		if keep >= len(deletable) {
			deletable = nil
		} else {
			deletable = deletable[:len(deletable)-keep]
		}
	}
	if len(deletable) == 0 {
		return nil
	}
	drop := make(map[int]bool, len(deletable))
	for _, i := range deletable {
		drop[i] = true
	}
	kept := w.segFirst[:0]
	for i, first := range w.segFirst {
		if !drop[i] {
			kept = append(kept, first)
			continue
		}
		if err := os.Remove(w.segPath(first)); err != nil {
			return err
		}
	}
	w.segFirst = kept
	return storage.SyncDir(w.dir)
}

// Close flushes pending group commits and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	err := w.syncLocked()
	for _, ch := range w.pending {
		ch <- err
	}
	w.pending = nil
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// walRecord is one decoded record.
type walRecord struct {
	seq     uint64
	payload []byte
}

// scanSegment reads and verifies one segment file. It returns the valid
// records, the byte length of the valid prefix, and whether a torn tail
// was found. A torn record — short header, implausible length, checksum or
// sequence mismatch — terminates the scan: tolerated (tornOK) in the
// newest segment, ErrCorrupt anywhere else.
func scanSegment(path string, firstSeq uint64, tornOK bool) (recs []walRecord, goodLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, err
	}
	recs, goodLen, torn, err = scanBytes(data, firstSeq, tornOK)
	if err != nil {
		return nil, 0, false, fmt.Errorf("%w of %s", err, filepath.Base(path))
	}
	return recs, goodLen, torn, nil
}

// scanBytes is the byte-level half of scanSegment, shared with the
// log-shipping verification of ScanRecords.
func scanBytes(data []byte, firstSeq uint64, tornOK bool) (recs []walRecord, goodLen int64, torn bool, err error) {
	expect := firstSeq
	off := 0
	fail := func(reason string) ([]walRecord, int64, bool, error) {
		if tornOK {
			return recs, int64(off), true, nil
		}
		return nil, 0, false, fmt.Errorf("%w: %s at offset %d", ErrCorrupt, reason, off)
	}
	for off < len(data) {
		if len(data)-off < walRecordHeader {
			return fail("short record header")
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		if n > walMaxRecordBytes || off+walRecordHeader+n > len(data) {
			return fail("short record body")
		}
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		body := data[off+8 : off+walRecordHeader+n]
		if crc32.Checksum(body, crcTable) != sum {
			return fail("checksum mismatch")
		}
		seq := binary.LittleEndian.Uint64(data[off+8 : off+16])
		if seq != expect {
			return fail(fmt.Sprintf("sequence %d, want %d", seq, expect))
		}
		recs = append(recs, walRecord{seq: seq, payload: data[off+walRecordHeader : off+walRecordHeader+n]})
		off += walRecordHeader + n
		expect++
	}
	return recs, int64(off), false, nil
}
