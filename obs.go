package stpq

// obs.go is the public observability surface of a DB: per-query span
// traces (Config.Tracing / Stats.Trace) and the aggregate metrics registry
// (DB.Metrics / DB.WriteMetricsPrometheus).

import (
	"io"

	"stpq/internal/obs"
)

// Span is one node of a query trace: a named phase with its accumulated
// wall time, the page reads observed while it was open (including its
// children's), optional counters and child phases. Traces are collected
// when Config.Tracing is on (or after DB.SetTracing) and returned in
// Stats.Trace; the root span covers the whole query, so its read deltas
// equal Stats.LogicalReads/PhysicalReads. Walk visits the tree depth-first
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
// includes the per-shape query statistics (stpq_shape_*_total) backing
// DB.Explain's predictions.
func (db *DB) WriteMetricsPrometheus(w io.Writer) error {
	if err := db.metrics.Snapshot().WritePrometheus(w); err != nil {
		return err
	}
	return db.tel.Shapes.WritePrometheus(w)
}

// SetTracing toggles per-query trace collection (Config.Tracing sets the
// initial state; Open restores the saved one). Queries that already started
// keep their tracing decision.
func (db *DB) SetTracing(on bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tracing.Store(on)
	db.cfg.Tracing = on // persisted by Save
}
