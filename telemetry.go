package stpq

// telemetry.go is the public query-telemetry surface: the per-query event
// log (RecentQueries), the slow-query log (SlowQueries), and the per-shape
// counters of what each query shape ran and cost (QueryShapes). All three
// are always on with bounded memory; see DESIGN.md "Life of a query".

import "stpq/internal/obs"

// QueryEvent is one query's structured record in the event log: identity,
// canonical shape (the join key into QueryShapes), cost counters and
// outcome, plus the full span tree for sampled, explicitly traced, or slow
// queries.
type QueryEvent = obs.QueryEvent

// RecentQueries returns up to n of the most recent query event records,
// newest first (n ≤ 0 returns all held). The log is a fixed-size ring
// (obs.DefaultEventLogSize entries) recording every query — successes,
// failures and cache hits — with negligible overhead; full span trees are
// attached only for sampled, explicitly traced, or slow queries.
func (db *DB) RecentQueries(n int) []QueryEvent {
	return db.tel.Events.Recent(n)
}

// SlowQueries returns up to n of the most recent queries whose CPU time
// reached the slow-query threshold (DB.SetTraceSampling), newest first,
// each with a complete span tree regardless of the sampling rate. Empty
// when no threshold is set.
func (db *DB) SlowQueries(n int) []QueryEvent {
	return db.tel.Slow.Recent(n)
}

// ShapeStat is one canonical query shape's row of the statistics: how many
// times the shape ran in this process and its mean cost per execution.
type ShapeStat = obs.ShapeRow

// QueryShapes returns the recorded cost profile of every query shape seen
// so far, most-queried first. The same data is exported in Prometheus form
// (stpq_shape_*_total) by WriteMetricsPrometheus.
func (db *DB) QueryShapes() []ShapeStat {
	return db.tel.Shapes.Rows()
}
