package stpq

// prepare.go is the one query pipeline. Every entry point — DB.TopK,
// Snapshot.TopK/Score/Explain, the serve worker pool and the cluster
// node — goes
//
//	Snapshot.Prepare:  validate → lower → shape key → trace decision
//	Prepared.Run:      execute (the one engine) → metrics → event
//
// and nothing else validates a public Query, looks its keywords up in the
// vocabulary, decides whether spans are collected or files an event
// record. The engine below executes a lowered core.Query and returns Stats;
// the layers above carry the *Prepared around.

import (
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"stpq/internal/core"
	"stpq/internal/geo"
	"stpq/internal/index"
	"stpq/internal/kwset"
	"stpq/internal/obs"
)

// ShapeKey identifies a query shape: the coordinates that determine a
// query's cost profile. It keys the per-shape statistics (QueryShapes) and
// labels every event record.
type ShapeKey = obs.ShapeKey

// QueryShape is the one definition of a query's canonical shape key. The
// radius is bucketed, except for nearest-neighbour queries, which ignore
// it; Sets counts the keyword lists that hold at least one keyword after
// normalization. Alg spells the algorithm that runs ("stps" or "stds"), so
// the cluster coordinator and its nodes key a query alike.
func QueryShape(q Query) ShapeKey {
	radius := q.Radius
	if q.Variant == NearestNeighbor {
		radius = 0 // buckets as "no radius"
	}
	key := ShapeKey{
		Alg:     "stps",
		Variant: core.Variant(q.Variant).String(),
		Sim:     index.Similarity(q.Similarity).String(),
		K:       q.K,
		RBucket: obs.RadiusBucket(radius),
	}
	if q.Algorithm == STDS {
		key.Alg = "stds"
	}
	for _, words := range q.Keywords {
		for _, w := range words {
			if kwset.Normalize(w) != "" {
				key.Sets++
				break
			}
		}
	}
	return key
}

// Fingerprint returns the canonical cache key of a query: two queries
// have equal fingerprints iff they are semantically identical. Keyword
// lists are normalized (lower-cased, trimmed), sorted and deduplicated;
// feature sets with no keywords are dropped (they match nothing either
// way); floats are rendered exactly. RequestID and Trace are not part of
// the key.
func Fingerprint(q Query) string {
	var b strings.Builder
	b.Grow(128) // a two-set query renders to about a hundred bytes
	b.WriteString("v")
	b.WriteString(strconv.Itoa(int(q.Variant)))
	b.WriteString("|a")
	b.WriteString(strconv.Itoa(int(q.Algorithm)))
	b.WriteString("|s")
	b.WriteString(strconv.Itoa(int(q.Similarity)))
	b.WriteString("|k")
	b.WriteString(strconv.Itoa(q.K))
	b.WriteString("|r")
	b.WriteString(strconv.FormatFloat(q.Radius, 'x', -1, 64))
	b.WriteString("|l")
	b.WriteString(strconv.FormatFloat(q.Lambda, 'x', -1, 64))
	names := make([]string, 0, len(q.Keywords))
	for name, kws := range q.Keywords {
		if len(kws) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		b.WriteString("|")
		b.WriteString(strconv.Quote(name))
		b.WriteString("=")
		kws := make([]string, 0, len(q.Keywords[name]))
		for _, w := range q.Keywords[name] {
			if n := kwset.Normalize(w); n != "" {
				kws = append(kws, n)
			}
		}
		sort.Strings(kws)
		prev := ""
		for i, w := range kws {
			if i > 0 && w == prev {
				continue
			}
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString(strconv.Quote(w))
			prev = w
		}
	}
	return b.String()
}

// Prepared is a query that has been validated and lowered against one
// snapshot's vocabulary. It is good for one execution (Run) or one of the
// read-only probes (Score, Explain); the serving
// layer carries it from admission to the worker so the cache key, the
// cache-hit event and the execution all read one value.
// One goroutine uses it at a time.
type Prepared struct {
	snap *Snapshot
	q    Query
	cq   core.Query
	key  ShapeKey
	// keep reports that the span tree was asked for (Query.Trace or a
	// sampling hit); a tree collected only so a slow query would have one is
	// dropped again unless the query turns out slow.
	keep bool
	fp   string
}

// Prepare validates q against the snapshot's feature sets, lowers it to the
// engine's form, takes the trace decision — Query.Trace, then the sampling
// rate, then the slow-query threshold (DB.SetTraceSampling). Errors wrap
// ErrInvalidQuery.
func (s *Snapshot) Prepare(q Query) (*Prepared, error) {
	if err := ValidateQuery(q, s.names); err != nil {
		return nil, err
	}
	p := &Prepared{snap: s, q: q, key: QueryShape(q)}
	kws := make([]kwset.Set, len(s.names))
	for i, name := range s.names {
		kws[i] = s.vocab.LookupSet(q.Keywords[name]...)
	}
	p.cq = core.Query{
		K:          q.K,
		Radius:     q.Radius,
		Lambda:     q.Lambda,
		Keywords:   kws,
		Variant:    core.Variant(q.Variant),
		Similarity: index.Similarity(q.Similarity),
		RequestID:  q.RequestID,
	}

	switch pol := s.db.tel.Sampling(); {
	case q.Trace, pol.Sample():
		p.cq.Trace, p.keep = true, true
	case pol.Slow > 0:
		p.cq.Trace = true
	}
	return p, nil
}

// Traced reports that Prepare chose to collect and keep the query's span
// tree (Query.Trace or a sampling hit). A result cache must not answer such
// a query: its tree has to come from the execution that returns it.
func (p *Prepared) Traced() bool { return p.keep }

// Query returns the query as prepared.
func (p *Prepared) Query() Query { return p.q }

// Generation returns the build generation of the snapshot the query was
// prepared against.
func (p *Prepared) Generation() uint64 { return p.snap.gen }

// Fingerprint returns the query's result-cache key (see Fingerprint),
// computed on first use.
func (p *Prepared) Fingerprint() string {
	if p.fp == "" {
		p.fp = Fingerprint(p.q)
	}
	return p.fp
}

// Shape returns the query's canonical shape label — the key its cost
// statistics are recorded under.
func (p *Prepared) Shape() string { return p.snap.db.tel.Shapes.Name(p.key) }

// Run executes the query and records it: per-algorithm metrics on success,
// and exactly one event record either way.
func (p *Prepared) Run() ([]Result, Stats, error) {
	var (
		res []core.Result
		st  Stats
		err error
	)
	start := time.Now()
	if p.q.Algorithm == STDS {
		res, st, err = p.snap.engine.STDS(p.cq)
	} else {
		res, st, err = p.snap.engine.STPS(p.cq)
	}
	if p.keep {
		st.Trace.MarkKeep()
	}
	p.record(start, &st, err, false)
	if err != nil {
		return nil, Stats{}, err
	}
	// A trace collected only provisionally is not part of the answer unless
	// the query actually crossed the threshold.
	if !p.keep && st.CPUTime < p.snap.db.tel.Sampling().Slow {
		st.Trace = nil
	}
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{ID: r.ID, X: r.Location.X, Y: r.Location.Y, Score: r.Score}
	}
	return out, st, nil
}

// RecordHit files the event record of a query answered from a
// serving-layer result cache: attributable like any other query, but not
// counted into the metrics or the shape statistics (no engine ran).
func (p *Prepared) RecordHit(start time.Time, elapsed time.Duration) {
	p.record(start, &Stats{CPUTime: elapsed}, nil, true)
}

// record is the one recorder: metrics for executions that succeeded (a
// failed query must not skew latency histograms), the event log always
// (failures are exactly what it must surface).
func (p *Prepared) record(start time.Time, st *Stats, err error, cacheHit bool) {
	db := p.snap.db
	executed := err == nil && !cacheHit
	if executed {
		db.qmetrics.observe(db.metrics, p, st)
	}
	ev := NewQueryEvent(p.q, p.key, st, start, err)
	ev.CacheHit = cacheHit
	db.tel.Record(ev, p.key, executed)
}

// NewQueryEvent renders a finished query as its event record: identity from
// q, labels from key, costs from st. The cluster coordinator files its
// merged queries through the same function, so a node's and the
// coordinator's record of one request agree field for field. Allocation-
// free.
func NewQueryEvent(q Query, key ShapeKey, st *Stats, start time.Time, err error) QueryEvent {
	ev := QueryEvent{
		Start:          start,
		RequestID:      q.RequestID,
		Algorithm:      key.Alg,
		Variant:        key.Variant,
		K:              q.K,
		Radius:         q.Radius,
		Duration:       st.CPUTime,
		IOTime:         st.IOTime,
		LogicalReads:   st.LogicalReads,
		PhysicalReads:  st.PhysicalReads,
		Combinations:   st.Combinations,
		FeaturesPulled: st.FeaturesPulled,
		ObjectsScored:  st.ObjectsScored,
		ShardFanout:    st.ShardFanout,
		ShardPruned:    st.ShardPruned,
		Outcome:        "ok",
		Trace:          st.Trace,
	}
	if err != nil {
		ev.Outcome = "error"
		ev.Error = err.Error()
	}
	return ev
}

// queryMetrics are the registry series one finished query feeds, resolved
// once per (algorithm, variant) instead of by name on every query.
type queryMetrics struct {
	queries, combinations, featuresPulled, objectsScored *obs.Counter
	seconds, cpuSeconds, physicalReads                   *obs.Histogram
}

// queryMetricsTable caches queryMetrics by [stds][variant]. Two queries
// racing to fill a slot register the same named series, so either pointer
// is right.
type queryMetricsTable [2][3]atomic.Pointer[queryMetrics]

func (t *queryMetricsTable) observe(r *obs.Registry, p *Prepared, st *Stats) {
	isSTDS := 0
	if p.q.Algorithm == STDS {
		isSTDS = 1
	}
	slot := &t[isSTDS][p.cq.Variant]
	m := slot.Load()
	if m == nil {
		label := `{alg="` + p.key.Alg + `",variant="` + p.key.Variant + `"}`
		m = &queryMetrics{
			queries:        r.Counter("stpq_queries_total" + label),
			seconds:        r.Histogram("stpq_query_seconds"+label, obs.LatencyBuckets),
			cpuSeconds:     r.Histogram("stpq_query_cpu_seconds"+label, obs.LatencyBuckets),
			physicalReads:  r.Histogram("stpq_query_physical_reads"+label, obs.ReadBuckets),
			combinations:   r.Counter("stpq_combinations_total" + label),
			featuresPulled: r.Counter("stpq_features_pulled_total" + label),
			objectsScored:  r.Counter("stpq_objects_scored_total" + label),
		}
		slot.Store(m)
	}
	m.queries.Inc()
	m.seconds.Observe(st.Total().Seconds())
	m.cpuSeconds.Observe(st.CPUTime.Seconds())
	m.physicalReads.Observe(float64(st.PhysicalReads))
	m.combinations.Add(int64(st.Combinations))
	m.featuresPulled.Add(int64(st.FeaturesPulled))
	m.objectsScored.Add(int64(st.ObjectsScored))
	if st.ShardFanout+st.ShardPruned > 0 {
		r.Counter("stpq_shard_fanout_total").Add(int64(st.ShardFanout))
		r.Counter("stpq_shard_pruned_total").Add(int64(st.ShardPruned))
	}
}

// Score computes the exact score of an arbitrary location under the query,
// by brute force.
func (p *Prepared) Score(x, y float64) (float64, error) {
	return p.snap.engine.ExactScore(p.cq, geo.Point{X: x, Y: y})
}
