package obs

// events.go is the query event log and the per-shape statistics table:
// every finished query leaves one fixed-size structured record in a ring
// buffer (cheap fields always, the full span tree only when sampled,
// explicitly requested, or slower than the slow-query threshold), and
// feeds a per-shape aggregate: how many times each query shape ran and
// what it cost.
//
// The unsampled hot path is allocation-free in steady state: events are
// value types copied into a preallocated ring, and shape aggregation is an
// RLock map lookup plus atomic adds once the shape exists.

import (
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// QueryEvent is one query's structured record in the event log. It
// marshals to the JSON the /debug/queries endpoints serve.
type QueryEvent struct {
	// Seq is the event's position in the log's append order (1-based,
	// monotonically increasing across ring wrap-arounds).
	Seq uint64 `json:"seq"`
	// Start is when query execution began.
	Start time.Time `json:"start"`
	// RequestID attributes the event to one request (empty for library
	// callers that did not set one).
	RequestID string `json:"request_id,omitempty"`
	// Shape is the canonical query shape (ShapeKey.String interned by
	// ShapeStats), the join key into the per-shape statistics.
	Shape string `json:"shape"`
	// Algorithm is "stds" or "stps"; Variant the score variant name.
	Algorithm string  `json:"algorithm"`
	Variant   string  `json:"variant"`
	K         int     `json:"k"`
	Radius    float64 `json:"radius,omitempty"`
	// Duration is the measured wall time of query processing; IOTime the
	// modeled disk time.
	Duration       time.Duration `json:"duration_ns"`
	IOTime         time.Duration `json:"io_ns"`
	LogicalReads   int64         `json:"logical_reads"`
	PhysicalReads  int64         `json:"physical_reads"`
	Combinations   int           `json:"combinations"`
	FeaturesPulled int           `json:"features_pulled"`
	ObjectsScored  int           `json:"objects_scored"`
	// ShardFanout and ShardPruned count the shard parts the query descended
	// into / never read (zero on unsharded engines and in a cluster
	// coordinator's events).
	ShardFanout int `json:"shard_fanout,omitempty"`
	ShardPruned int `json:"shard_pruned,omitempty"`
	// CacheHit marks events recorded for serve-layer result-cache hits,
	// which never touch the engine.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Sampled reports that the span tree was kept by the probabilistic
	// sampler (or explicit request); Slow that the query crossed the
	// slow-query threshold.
	Sampled bool `json:"sampled,omitempty"`
	Slow    bool `json:"slow,omitempty"`
	// Outcome is "ok" or "error"; Error carries the error text.
	Outcome string `json:"outcome"`
	Error   string `json:"error,omitempty"`
	// Trace is the full span tree, present only when Sampled or Slow.
	Trace *Span `json:"trace,omitempty"`
}

// EventLog is a fixed-capacity ring buffer of query events. Record copies
// the event into the ring under a short mutex — no allocation, no
// false sharing with readers — so it is cheap enough to stay always on.
type EventLog struct {
	mu   sync.Mutex
	ring []QueryEvent
	seq  uint64
}

// NewEventLog returns a ring of the given capacity (minimum 1).
func NewEventLog(capacity int) *EventLog {
	if capacity < 1 {
		capacity = 1
	}
	return &EventLog{ring: make([]QueryEvent, capacity)}
}

// Record appends one event, overwriting the oldest once the ring is full,
// and assigns its sequence number. Nil-safe.
func (l *EventLog) Record(ev QueryEvent) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	l.ring[(l.seq-1)%uint64(len(l.ring))] = ev
	l.mu.Unlock()
}

// Len returns the number of events currently held (≤ capacity).
func (l *EventLog) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seq < uint64(len(l.ring)) {
		return int(l.seq)
	}
	return len(l.ring)
}

// Recent returns up to n events, newest first. n ≤ 0 means all held.
func (l *EventLog) Recent(n int) []QueryEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	held := int(l.seq)
	if held > len(l.ring) {
		held = len(l.ring)
	}
	if n <= 0 || n > held {
		n = held
	}
	out := make([]QueryEvent, n)
	for i := 0; i < n; i++ {
		out[i] = l.ring[(l.seq-1-uint64(i))%uint64(len(l.ring))]
	}
	return out
}

// ShapeKey identifies a query shape: the coordinates that determine a
// query's cost profile, with the radius quantized so nearly identical radii
// share statistics. Two queries with the same key are expected to cost
// about the same, which is what makes the per-shape means worth reading.
type ShapeKey struct {
	// Alg is "stds" or "stps"; Variant and Sim are the enum names.
	Alg     string
	Variant string
	Sim     string
	K       int
	// RBucket is RadiusBucket(Radius).
	RBucket int
	// Sets counts the non-empty query keyword sets.
	Sets int
}

// noRadius is the RBucket sentinel for radius-free queries (NN variant).
const noRadius = math.MinInt32

// RadiusBucket quantizes a radius into half-powers of two (two buckets per
// doubling), collapsing nearly equal radii onto one shape.
func RadiusBucket(r float64) int {
	if r <= 0 {
		return noRadius
	}
	return int(math.Round(2 * math.Log2(r)))
}

// String renders the canonical shape label, e.g.
// "stps|range|jaccard|k=10|r~0.0117|sets=2". It is injective over keys
// whose Alg/Variant/Sim fields are pipe-free enum names: the rounded radius
// preview is unambiguous because adjacent buckets differ by a factor of √2
// (well above the 3-significant-digit resolution), and buckets whose
// preview would over- or underflow the float range fall back to the exact
// bucket number.
func (k ShapeKey) String() string {
	r := "r=-"
	if k.RBucket != noRadius {
		if v := math.Exp2(float64(k.RBucket) / 2); v > 0 && !math.IsInf(v, 1) {
			r = "r~" + strconv.FormatFloat(v, 'g', 3, 64)
		} else {
			r = "r#" + strconv.Itoa(k.RBucket)
		}
	}
	return k.Alg + "|" + k.Variant + "|" + k.Sim +
		"|k=" + strconv.Itoa(k.K) + "|" + r + "|sets=" + strconv.Itoa(k.Sets)
}

// shapeAgg accumulates per-shape totals. Fields are atomics so the hot
// path adds without holding the table lock.
type shapeAgg struct {
	name     string // interned ShapeKey.String()
	count    atomic.Int64
	duration atomic.Int64 // nanoseconds
	ioTime   atomic.Int64 // nanoseconds
	logical  atomic.Int64
	physical atomic.Int64
	combos   atomic.Int64
}

// ShapeStats is the per-shape aggregate table: query count and cost totals
// keyed by canonical shape. Safe for concurrent use; observation is an
// RLock lookup plus atomic adds once the shape exists.
type ShapeStats struct {
	mu sync.RWMutex
	m  map[ShapeKey]*shapeAgg
}

// NewShapeStats returns an empty table.
func NewShapeStats() *ShapeStats {
	return &ShapeStats{m: make(map[ShapeKey]*shapeAgg)}
}

// Observe feeds one finished query into the table and returns the interned
// shape label (shared by every event of the shape, so recording an event
// does not allocate). Nil-safe: returns "" on a nil table.
func (s *ShapeStats) Observe(k ShapeKey, wall, ioTime time.Duration, logical, physical int64, combos int) string {
	if s == nil {
		return ""
	}
	s.mu.RLock()
	a := s.m[k]
	s.mu.RUnlock()
	if a == nil {
		s.mu.Lock()
		if a = s.m[k]; a == nil {
			a = &shapeAgg{name: k.String()}
			s.m[k] = a
		}
		s.mu.Unlock()
	}
	a.count.Add(1)
	a.duration.Add(int64(wall))
	a.ioTime.Add(int64(ioTime))
	a.logical.Add(logical)
	a.physical.Add(physical)
	a.combos.Add(int64(combos))
	return a.name
}

// Name returns the interned label of a shape if it has been observed, or a
// freshly rendered one otherwise (used for cache-hit events, which must
// not count as engine executions).
func (s *ShapeStats) Name(k ShapeKey) string {
	if s == nil {
		return ""
	}
	s.mu.RLock()
	a := s.m[k]
	s.mu.RUnlock()
	if a != nil {
		return a.name
	}
	return k.String()
}

// ShapeRow is one query shape's row of the table: how many times the
// shape ran and its mean cost per execution.
type ShapeRow struct {
	Shape             string        `json:"shape"`
	Samples           int64         `json:"samples"`
	MeanDuration      time.Duration `json:"mean_duration_ns"`
	MeanIOTime        time.Duration `json:"mean_io_ns"`
	MeanLogicalReads  float64       `json:"mean_logical_reads"`
	MeanPhysicalReads float64       `json:"mean_physical_reads"`
	MeanCombinations  float64       `json:"mean_combinations"`
}

// row snapshots one aggregate.
func (a *shapeAgg) row() ShapeRow {
	n := a.count.Load()
	p := ShapeRow{Shape: a.name, Samples: n}
	if n == 0 {
		return p
	}
	p.MeanDuration = time.Duration(a.duration.Load() / n)
	p.MeanIOTime = time.Duration(a.ioTime.Load() / n)
	p.MeanLogicalReads = float64(a.logical.Load()) / float64(n)
	p.MeanPhysicalReads = float64(a.physical.Load()) / float64(n)
	p.MeanCombinations = float64(a.combos.Load()) / float64(n)
	return p
}

// Rows returns every observed shape's row, most-queried first (ties by
// shape label).
func (s *ShapeStats) Rows() []ShapeRow {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	out := make([]ShapeRow, 0, len(s.m))
	for _, a := range s.m {
		out = append(out, a.row())
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Samples != out[j].Samples {
			return out[i].Samples > out[j].Samples
		}
		return out[i].Shape < out[j].Shape
	})
	return out
}

// WritePrometheus writes the table as counter families labeled by shape
// (Prometheus text exposition v0.0.4). Each sample is an aggregate's
// integer total, not a mean times a count, so a counter is exact and never
// goes backwards. Shape labels are built from enum names and numbers only,
// so no escaping is needed.
func (s *ShapeStats) WritePrometheus(w io.Writer) error {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	aggs := make([]*shapeAgg, 0, len(s.m))
	for _, a := range s.m {
		aggs = append(aggs, a)
	}
	s.mu.RUnlock()
	sort.Slice(aggs, func(i, j int) bool { return aggs[i].name < aggs[j].name })
	families := []struct {
		name    string
		total   func(*shapeAgg) int64
		seconds bool // the total is nanoseconds, printed as seconds
	}{
		{"stpq_shape_queries_total", func(a *shapeAgg) int64 { return a.count.Load() }, false},
		{"stpq_shape_seconds_total", func(a *shapeAgg) int64 { return a.duration.Load() }, true},
		{"stpq_shape_io_seconds_total", func(a *shapeAgg) int64 { return a.ioTime.Load() }, true},
		{"stpq_shape_logical_reads_total", func(a *shapeAgg) int64 { return a.logical.Load() }, false},
		{"stpq_shape_physical_reads_total", func(a *shapeAgg) int64 { return a.physical.Load() }, false},
		{"stpq_shape_combinations_total", func(a *shapeAgg) int64 { return a.combos.Load() }, false},
	}
	for _, f := range families {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", f.name); err != nil {
			return err
		}
		for _, a := range aggs {
			t := f.total(a)
			v := strconv.FormatInt(t, 10)
			if f.seconds {
				v = formatFloat(float64(t) / 1e9)
			}
			if _, err := fmt.Fprintf(w, "%s{shape=%q} %s\n", f.name, a.name, v); err != nil {
				return err
			}
		}
	}
	return nil
}

// Ring capacities of a Telemetry.
const (
	DefaultEventLogSize = 1024
	DefaultSlowLogSize  = 128
)

// Telemetry bundles the always-on query telemetry of an engine: the event
// ring, the slow-query ring, the per-shape table, and the trace sampling
// policy. A nil *Telemetry disables everything (all methods are nil-safe).
type Telemetry struct {
	// Events is the recent-query ring; Slow the slow-query ring (complete
	// traces for every query over the slow threshold).
	Events *EventLog
	Slow   *EventLog
	// Shapes is the per-shape statistics table.
	Shapes   *ShapeStats
	sampling atomic.Pointer[Sampling]
}

// Sampling is the trace policy of a Telemetry.
type Sampling struct {
	// Rate is the probability that a query without an explicit tracing
	// decision collects — and its event record keeps — a full span tree.
	// 0 disables sampling, 1 traces everything.
	Rate float64
	// Slow, when positive, forces span collection on every query so that
	// any query slower than it lands in the slow ring with a complete
	// trace. The trace is dropped from the record (and from the query's
	// Stats) unless the query was sampled or actually slow.
	Slow time.Duration
}

// Sample draws one trace-sampling decision.
func (s Sampling) Sample() bool {
	return s.Rate >= 1 || (s.Rate > 0 && rand.Float64() < s.Rate)
}

// NewTelemetry builds a bundle with both rings at their default sizes and
// sampling off.
func NewTelemetry() *Telemetry {
	t := &Telemetry{
		Events: NewEventLog(DefaultEventLogSize),
		Slow:   NewEventLog(DefaultSlowLogSize),
		Shapes: NewShapeStats(),
	}
	t.sampling.Store(&Sampling{})
	return t
}

// Sampling returns the current trace policy; the zero policy on a nil
// Telemetry.
func (t *Telemetry) Sampling() Sampling {
	if t == nil {
		return Sampling{}
	}
	return *t.sampling.Load()
}

// SetSampling replaces the trace policy. Safe while queries run: each one
// reads the policy once, whole.
func (t *Telemetry) SetSampling(s Sampling) {
	t.sampling.Store(&s)
}

// Record files one query event: it resolves the shape label (counting the
// execution into the shape table unless observeShape is false, as for
// cache hits and errors), applies the slow-query and trace-keeping policy,
// and appends to the rings. Nil-safe.
func (t *Telemetry) Record(ev QueryEvent, key ShapeKey, observeShape bool) {
	if t == nil {
		return
	}
	if observeShape {
		ev.Shape = t.Shapes.Observe(key, ev.Duration, ev.IOTime, ev.LogicalReads, ev.PhysicalReads, ev.Combinations)
	} else {
		ev.Shape = t.Shapes.Name(key)
	}
	slow := t.Sampling().Slow
	ev.Slow = slow > 0 && ev.Duration >= slow
	if ev.Trace != nil {
		ev.Sampled = ev.Trace.Kept()
		if !ev.Sampled && !ev.Slow {
			// Collected only in case the query turned out slow; it didn't.
			ev.Trace = nil
		}
	}
	t.Events.Record(ev)
	if ev.Slow {
		t.Slow.Record(ev)
	}
}
