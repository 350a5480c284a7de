package stpq

// obs.go is the public observability surface of a DB: per-query span
// traces (Query.Trace, DB.SetTraceSampling / Stats.Trace) and the aggregate
// metrics registry (DB.Metrics / DB.WriteMetricsPrometheus).

import (
	"fmt"
	"io"
	"math"
	"time"

	"stpq/internal/obs"
)

// Span is one node of a query trace: a named phase with its accumulated
// wall time, the page reads observed while it was open (including its
// children's), optional counters and child phases. Traces are collected
// for a query with Query.Trace set, a sampling hit or a slow query (see
// DB.SetTraceSampling) and returned in Stats.Trace; the root span covers
// the whole query, so its read deltas equal Stats.LogicalReads/PhysicalReads. Walk visits the tree depth-first
// and String renders it one line per span.
type Span = obs.Span

// MetricsSnapshot is a point-in-time copy of the DB's metrics: buffer-pool
// counters per index and per-query latency/page-read histograms per
// algorithm and variant (HistogramSnapshot: bucket upper bounds, with one
// extra trailing count for the +Inf bucket). It marshals to JSON directly;
// for Prometheus text format use DB.WriteMetricsPrometheus.
type (
	MetricsSnapshot   = obs.Snapshot
	HistogramSnapshot = obs.HistogramSnapshot
)

// Metrics returns a snapshot of the DB's aggregate metrics. Unlike Stats —
// which describes one query — these accumulate over the DB's lifetime.
func (db *DB) Metrics() MetricsSnapshot {
	return db.metrics.Snapshot()
}

// WriteMetricsPrometheus writes the current metrics in Prometheus text
// exposition format, suitable for a /metrics scrape handler. The exposition
// includes the per-shape query statistics (stpq_shape_*_total), the
// counters behind DB.QueryShapes.
func (db *DB) WriteMetricsPrometheus(w io.Writer) error {
	if err := db.metrics.Snapshot().WritePrometheus(w); err != nil {
		return err
	}
	return db.tel.Shapes.WritePrometheus(w)
}

// SetTraceSampling sets the engine-wide trace policy: each query without
// Query.Trace collects a span tree with probability rate, and — when slow
// is positive — every query collects one provisionally and keeps it if its
// CPU time reaches slow, landing in SlowQueries. Safe while queries run;
// a query that already started keeps its decision. The policy belongs to
// the process, not the data: Save does not persist it. It rejects a rate
// outside [0, 1] (NaN included) and a negative threshold.
func (db *DB) SetTraceSampling(rate float64, slow time.Duration) error {
	if math.IsNaN(rate) || rate < 0 || rate > 1 {
		return fmt.Errorf("stpq: trace sample rate %v outside [0, 1]", rate)
	}
	if slow < 0 {
		return fmt.Errorf("stpq: negative slow-query threshold %v", slow)
	}
	db.tel.SetSampling(obs.Sampling{Rate: rate, Slow: slow})
	return nil
}
