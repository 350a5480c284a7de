// Package cluster serves one DB from several processes, each a whole-DB
// replica: a compact length-prefixed RPC protocol (query, WAL-segment
// fetch, health, info), a node server wrapping a serve.Service, a
// coordinator that routes each query to one replica with retries, failover
// and hedging, and a log-shipping follower that replays the leader's
// sealed WAL segments through the crash-recovery path, which is what keeps
// every replica's answers identical to the leader's. See DESIGN.md §13.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"stpq"
)

// Message types. Requests have the high bit clear; each reply is its
// request type with the high bit set; errors answer any request. Retired
// types are never reused, and a node answers them as unknown types, so a
// peer of another version fails fast instead of misparsing: 0x01 was the
// query layout that carried an execution mode and a recall target, 0x02
// the upper-bound probe.
const (
	msgSegment byte = 0x03
	msgHealth  byte = 0x04
	msgInfo    byte = 0x05
	msgQuery   byte = 0x06

	replyBit byte = 0x80
	msgError byte = 0xff
)

// maxFrame bounds one RPC frame (type byte + payload). WAL segments cap at
// Config.WALSegmentBytes (default 4 MiB), so 64 MiB leaves ample headroom
// while rejecting garbage length prefixes before allocation.
const maxFrame = 64 << 20

// Error codes carried by msgError replies. Everything except errInvalid is
// retryable: the request may succeed elsewhere or later.
const (
	errInvalid     uint8 = 1 // malformed or invalid request: fail fast
	errOverloaded  uint8 = 2 // admission queue full
	errUnavailable uint8 = 3 // draining, not built, deadline, no WAL
	errInternal    uint8 = 4 // execution error
)

// RPCError is a structured error reply from a node.
type RPCError struct {
	Code uint8
	Msg  string
}

// Error implements the error interface.
func (e *RPCError) Error() string {
	return fmt.Sprintf("cluster: rpc error %d: %s", e.Code, e.Msg)
}

// Retryable reports whether another attempt (same or different replica)
// can succeed.
func (e *RPCError) Retryable() bool { return e.Code != errInvalid }

// ErrBadFrame wraps every framing and decoding error.
var ErrBadFrame = errors.New("cluster: bad frame")

// writeFrame writes one [u32 len][u8 type][payload] frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload)+1 > maxFrame {
		return fmt.Errorf("%w: frame of %d bytes exceeds limit", ErrBadFrame, len(payload)+1)
	}
	hdr := make([]byte, 5, 5+len(payload))
	binary.LittleEndian.PutUint32(hdr, uint32(len(payload)+1))
	hdr[4] = typ
	_, err := w.Write(append(hdr, payload...))
	return err
}

// readFrame reads one frame, returning its type and payload.
func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 1 || n > maxFrame {
		return 0, nil, fmt.Errorf("%w: length %d", ErrBadFrame, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return body[0], body[1:], nil
}

// enc is an append-only encoder for RPC payloads: uvarints for counts and
// ids, fixed 8-byte little-endian for floats, length-prefixed strings.
type enc struct{ b []byte }

func (e *enc) u64(v uint64)  { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i64(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) u8(v uint8)    { e.b = append(e.b, v) }
func (e *enc) bool(v bool)   { e.b = append(e.b, b2u(v)) }
func (e *enc) f64(v float64) { e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v)) }
func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) bytes(p []byte) {
	e.u64(uint64(len(p)))
	e.b = append(e.b, p...)
}

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// dec decodes RPC payloads; the first error sticks.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: truncated payload", ErrBadFrame)
	}
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *dec) u8() uint8 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) bool() bool { return d.u8() != 0 }

func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

func (d *dec) str() string { return string(d.raw()) }

func (d *dec) bytes() []byte {
	raw := d.raw()
	if raw == nil {
		return nil
	}
	out := make([]byte, len(raw))
	copy(out, raw)
	return out
}

// raw returns a length-prefixed slice aliasing the payload buffer.
func (d *dec) raw() []byte {
	n := d.u64()
	if d.err != nil {
		return nil
	}
	if uint64(len(d.b)) < n {
		d.fail()
		return nil
	}
	v := d.b[:n]
	d.b = d.b[n:]
	return v
}

// done errors unless the payload was consumed exactly.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadFrame, len(d.b))
	}
	return nil
}

// WireKeywords is one feature set's query keywords. Sets travel as a
// name-sorted slice — not a map — so one query has one encoding.
type WireKeywords struct {
	Name  string
	Words []string
}

// WireQuery is the query request payload: the full public query surface
// plus the request identity and trace flag, so /debug/queries on the
// answering node attributes the work to the originating request (enum
// values are the stpq constants).
type WireQuery struct {
	K          int
	Radius     float64
	Lambda     float64
	Variant    uint8
	Algorithm  uint8
	Similarity uint8
	RequestID  string
	Trace      bool
	Sets       []WireKeywords
}

// toWire lowers a public query into its canonical wire form: keyword sets
// sorted by name so one query has exactly one encoding.
func toWire(q stpq.Query) WireQuery {
	wq := WireQuery{
		K:          q.K,
		Radius:     q.Radius,
		Lambda:     q.Lambda,
		Variant:    uint8(q.Variant),
		Algorithm:  uint8(q.Algorithm),
		Similarity: uint8(q.Similarity),
		RequestID:  q.RequestID,
		Trace:      q.Trace == stpq.TraceOn,
	}
	if len(q.Keywords) > 0 {
		names := make([]string, 0, len(q.Keywords))
		for name := range q.Keywords {
			names = append(names, name)
		}
		sort.Strings(names)
		wq.Sets = make([]WireKeywords, len(names))
		for i, name := range names {
			wq.Sets[i] = WireKeywords{Name: name, Words: q.Keywords[name]}
		}
	}
	return wq
}

// toQuery raises a wire query into a public query.
func toQuery(wq WireQuery) stpq.Query {
	q := stpq.Query{
		K:          wq.K,
		Radius:     wq.Radius,
		Lambda:     wq.Lambda,
		Variant:    stpq.Variant(wq.Variant),
		Algorithm:  stpq.Algorithm(wq.Algorithm),
		Similarity: stpq.Similarity(wq.Similarity),
		RequestID:  wq.RequestID,
	}
	if wq.Trace {
		q.Trace = stpq.TraceOn
	} else {
		// The coordinator owns the sampling decision; nodes must not add
		// their own sampled traces to unsampled queries.
		q.Trace = stpq.TraceOff
	}
	if len(wq.Sets) > 0 {
		q.Keywords = make(map[string][]string, len(wq.Sets))
		for _, s := range wq.Sets {
			q.Keywords[s.Name] = s.Words
		}
	}
	return q
}

func encodeQuery(q WireQuery) []byte {
	var e enc
	e.u64(uint64(q.K))
	e.f64(q.Radius)
	e.f64(q.Lambda)
	e.u8(q.Variant)
	e.u8(q.Algorithm)
	e.u8(q.Similarity)
	e.str(q.RequestID)
	e.bool(q.Trace)
	e.u64(uint64(len(q.Sets)))
	for _, s := range q.Sets {
		e.str(s.Name)
		e.u64(uint64(len(s.Words)))
		for _, w := range s.Words {
			e.str(w)
		}
	}
	return e.b
}

func decodeQuery(p []byte) (WireQuery, error) {
	d := dec{b: p}
	q := WireQuery{
		K:          int(d.u64()),
		Radius:     d.f64(),
		Lambda:     d.f64(),
		Variant:    d.u8(),
		Algorithm:  d.u8(),
		Similarity: d.u8(),
		RequestID:  d.str(),
		Trace:      d.bool(),
	}
	n := d.u64()
	if n > uint64(len(p)) { // each set costs at least one byte on the wire
		d.fail()
	}
	if d.err == nil && n > 0 {
		q.Sets = make([]WireKeywords, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			s := WireKeywords{Name: d.str()}
			m := d.u64()
			if m > uint64(len(p)) {
				d.fail()
				break
			}
			if m > 0 {
				s.Words = make([]string, 0, m)
				for j := uint64(0); j < m && d.err == nil; j++ {
					s.Words = append(s.Words, d.str())
				}
			}
			q.Sets = append(q.Sets, s)
		}
	}
	return q, d.done()
}

// QueryReply answers msgQuery. Of Stats, the wire carries every cost
// counter (durations as nanoseconds) and the shard counters, so the
// coordinator hands the node's stats on unchanged; the span tree rides
// beside them as TraceJSON.
type QueryReply struct {
	Results    []stpq.Result
	Stats      stpq.Stats
	Generation uint64
	Cached     bool
	// TraceJSON is the node's span tree (marshaled stpq.Span), present only
	// when the query asked for tracing.
	TraceJSON []byte
}

func encodeQueryReply(r QueryReply) []byte {
	var e enc
	e.u64(uint64(len(r.Results)))
	for _, res := range r.Results {
		e.i64(res.ID)
		e.f64(res.X)
		e.f64(res.Y)
		e.f64(res.Score)
	}
	e.i64(int64(r.Stats.CPUTime))
	e.i64(int64(r.Stats.IOTime))
	e.i64(r.Stats.LogicalReads)
	e.i64(r.Stats.PhysicalReads)
	e.i64(int64(r.Stats.Combinations))
	e.i64(int64(r.Stats.FeaturesPulled))
	e.i64(int64(r.Stats.ObjectsScored))
	e.i64(int64(r.Stats.ShardFanout))
	e.i64(int64(r.Stats.ShardPruned))
	e.u64(r.Generation)
	e.bool(r.Cached)
	e.bytes(r.TraceJSON)
	return e.b
}

func decodeQueryReply(p []byte) (QueryReply, error) {
	d := dec{b: p}
	n := d.u64()
	if n > uint64(len(p)) {
		d.fail()
	}
	var r QueryReply
	if d.err == nil && n > 0 {
		r.Results = make([]stpq.Result, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			r.Results = append(r.Results, stpq.Result{
				ID: d.i64(), X: d.f64(), Y: d.f64(), Score: d.f64(),
			})
		}
	}
	r.Stats = stpq.Stats{
		CPUTime:        time.Duration(d.i64()),
		IOTime:         time.Duration(d.i64()),
		LogicalReads:   d.i64(),
		PhysicalReads:  d.i64(),
		Combinations:   int(d.i64()),
		FeaturesPulled: int(d.i64()),
		ObjectsScored:  int(d.i64()),
		ShardFanout:    int(d.i64()),
		ShardPruned:    int(d.i64()),
	}
	r.Generation = d.u64()
	r.Cached = d.bool()
	r.TraceJSON = d.bytes()
	if len(r.TraceJSON) == 0 {
		r.TraceJSON = nil
	}
	return r, d.done()
}

// SegmentRequest asks the leader for the oldest sealed WAL segment holding
// records at or after From.
type SegmentRequest struct {
	From uint64
}

func encodeSegmentRequest(r SegmentRequest) []byte {
	var e enc
	e.u64(r.From)
	return e.b
}

func decodeSegmentRequest(p []byte) (SegmentRequest, error) {
	d := dec{b: p}
	r := SegmentRequest{From: d.u64()}
	return r, d.done()
}

// SegmentReply carries one whole sealed segment (FirstSeq 0 and empty Data
// when the follower has caught up to the active segment).
type SegmentReply struct {
	FirstSeq uint64
	Data     []byte
}

func encodeSegmentReply(r SegmentReply) []byte {
	var e enc
	e.u64(r.FirstSeq)
	e.bytes(r.Data)
	return e.b
}

func decodeSegmentReply(p []byte) (SegmentReply, error) {
	d := dec{b: p}
	r := SegmentReply{FirstSeq: d.u64(), Data: d.bytes()}
	if len(r.Data) == 0 {
		r.Data = nil
	}
	return r, d.done()
}

// HealthReply answers msgHealth: liveness plus the replication watermark
// the coordinator's lag-aware routing reads.
type HealthReply struct {
	AppliedSeq uint64
	Objects    int
	Generation uint64
}

func encodeHealthReply(r HealthReply) []byte {
	var e enc
	e.u64(r.AppliedSeq)
	e.u64(uint64(r.Objects))
	e.u64(r.Generation)
	return e.b
}

func decodeHealthReply(p []byte) (HealthReply, error) {
	d := dec{b: p}
	r := HealthReply{AppliedSeq: d.u64(), Objects: int(d.u64()), Generation: d.u64()}
	return r, d.done()
}

func encodeError(code uint8, msg string) []byte {
	var e enc
	e.u8(code)
	e.str(msg)
	return e.b
}

func decodeError(p []byte) error {
	d := dec{b: p}
	code := d.u8()
	msg := d.str()
	if err := d.done(); err != nil {
		return err
	}
	return &RPCError{Code: code, Msg: msg}
}
