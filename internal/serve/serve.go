// Package serve turns a built stpq.DB into a concurrent query service: a
// bounded worker-pool executor whose admission is its queue (a full queue
// rejects) with per-query deadlines, an LRU result cache keyed by a
// canonical query fingerprint and invalidated by index rebuilds, and an
// HTTP front end (POST /query, GET /metrics, GET /healthz) used by
// cmd/stpqd.
//
// The paper measures per-query cost in isolation; this package is the
// systems wrapper that lets many such queries run at once while keeping
// the paper's per-query Stats attribution intact (see DB.Snapshot).
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"time"

	"stpq"
	"stpq/internal/obs"
)

// Sentinel errors returned by Service.Do. The HTTP layer maps them onto
// status codes: ErrOverloaded → 429, ErrDeadline → 504, ErrClosed → 503,
// and stpq.ErrInvalidQuery → 400.
var (
	// ErrOverloaded is returned when the admission queue is full.
	ErrOverloaded = errors.New("serve: overloaded, query queue full")
	// ErrDeadline is returned when a query's deadline expires before a
	// worker finishes it (including time spent waiting in the queue).
	ErrDeadline = errors.New("serve: query deadline exceeded")
	// ErrClosed is returned by Do after Close has begun.
	ErrClosed = errors.New("serve: service closed")
)

// Config tunes the service. The zero value is usable: GOMAXPROCS workers,
// a queue of 64, no deadline, a 256-entry result cache.
type Config struct {
	// Workers is the number of queries executed concurrently
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-yet-running
	// queries; a full queue rejects with ErrOverloaded (default 64).
	QueueDepth int
	// Timeout is the per-query deadline applied by Do on top of the
	// caller's context; 0 means no service-imposed deadline.
	Timeout time.Duration
	// CacheEntries is the result-cache capacity; 0 means the default
	// (256), negative disables caching.
	CacheEntries int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	return c
}

// Response is the outcome of one served query.
type Response struct {
	Results []stpq.Result
	Stats   stpq.Stats
	// Cached reports that the response was answered from the result
	// cache without touching the indexes (zero page reads).
	Cached bool
	// Generation is the index build generation the results belong to.
	Generation uint64
	// RequestID is the request-scoped identity the query ran under: the
	// caller's Query.RequestID, or one generated at admission. It joins
	// the response to the DB's event log and span trees.
	RequestID string
}

// Service executes queries against a DB through a bounded worker pool.
// Create with New, query with Do, shut down with Close.
type Service struct {
	db      *stpq.DB
	cfg     Config
	cache   *resultCache
	started time.Time

	tasks  chan *task
	wg     sync.WaitGroup
	sendMu sync.RWMutex // guards closed + sends on tasks vs. Close
	closed bool

	metrics  *obs.Registry
	hits     *obs.Counter // stpq_serve_cache_hits_total
	misses   *obs.Counter // stpq_serve_cache_misses_total
	queries  *obs.Counter
	ingests  *obs.Counter // stpq_serve_ingested_total (mutations via /ingest)
	overload *obs.Counter
	deadline *obs.Counter
	latency  *obs.Histogram
}

type task struct {
	ctx context.Context
	// p is the prepared query: the cache key, the cache-hit event and the
	// worker's execution all read it.
	p    *stpq.Prepared
	done chan taskResult
}

type taskResult struct {
	resp Response
	err  error
}

// New starts the worker pool and returns the service. The DB must already
// be built.
func New(db *stpq.DB, cfg Config) (*Service, error) {
	s, err := newUnstarted(db, cfg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// newUnstarted builds the service without launching workers; tests use it
// to exercise admission control deterministically.
func newUnstarted(db *stpq.DB, cfg Config) (*Service, error) {
	if _, err := db.Snapshot(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	s := &Service{
		db:       db,
		cfg:      cfg,
		started:  time.Now(),
		tasks:    make(chan *task, cfg.QueueDepth),
		metrics:  reg,
		hits:     reg.Counter("stpq_serve_cache_hits_total"),
		misses:   reg.Counter("stpq_serve_cache_misses_total"),
		queries:  reg.Counter("stpq_serve_queries_total"),
		ingests:  reg.Counter("stpq_serve_ingested_total"),
		overload: reg.Counter("stpq_serve_rejected_total{reason=\"overload\"}"),
		deadline: reg.Counter("stpq_serve_rejected_total{reason=\"deadline\"}"),
		latency:  reg.Histogram("stpq_serve_latency_seconds", obs.LatencyBuckets),
	}
	if cfg.CacheEntries > 0 {
		s.cache = newResultCache(cfg.CacheEntries, reg.Counter("stpq_serve_cache_evictions_total"))
	}
	return s, nil
}

// start launches the worker pool.
func (s *Service) start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// CacheHitFraction returns the fraction of query lookups served from the
// result cache, hits / (hits + misses). It returns 0 before any lookup,
// never NaN: a freshly started (or cache-disabled) service reports a cold
// cache, not a division by zero.
func (s *Service) CacheHitFraction() float64 {
	hits, misses := s.hits.Value(), s.misses.Value()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// Metrics returns the service's own registry (cache hit/miss, admission
// rejections, serve latency). The DB's registry is separate.
func (s *Service) Metrics() *obs.Registry { return s.metrics }

// DB returns the database the service fronts.
func (s *Service) DB() *stpq.DB { return s.db }

// Saturated reports whether admitted queries are waiting for a worker —
// the foreground-pressure probe the background compactor's pacing gate
// consumes (stpq.DB.SetCompactionGate): while queries queue, compaction
// work backs off.
func (s *Service) Saturated() bool { return len(s.tasks) > 0 }

// Do prepares (validates, lowers, plans), admits and executes one query,
// consulting the result cache first. It returns ErrOverloaded when the
// queue is full, ErrDeadline when the context (or Config.Timeout) expires
// before the query completes, ErrClosed after Close, and validation errors
// wrapping stpq.ErrInvalidQuery.
func (s *Service) Do(ctx context.Context, q stpq.Query) (Response, error) {
	if s.Closed() {
		// Checked up front so a draining service stops answering even
		// from the cache; enqueue re-checks under the lock.
		return Response{}, ErrClosed
	}
	s.queries.Inc()
	start := time.Now()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	snap, err := s.db.Snapshot()
	if err != nil {
		return Response{}, err
	}
	// Request-scoped identity: honor the caller's ID, generate one
	// otherwise. The ID rides the query through core execution, stamping
	// the span tree and the event record.
	if q.RequestID == "" {
		q.RequestID = NewRequestID()
	}
	p, err := snap.Prepare(q)
	if err != nil {
		return Response{}, err
	}
	// A query Prepare chose to trace bypasses the cache: its span tree must
	// come from the execution that answers it, not a cached neighbour's.
	if s.cache != nil && !p.Traced() {
		if resp, ok := s.cache.get(p.Fingerprint(), p.Generation()); ok {
			s.hits.Inc()
			elapsed := time.Since(start)
			s.latency.Observe(elapsed.Seconds())
			resp.RequestID = q.RequestID
			p.RecordHit(start, elapsed)
			return resp, nil
		}
		s.misses.Inc()
	}
	t := &task{ctx: ctx, p: p, done: make(chan taskResult, 1)}
	if err := s.enqueue(t); err != nil {
		return Response{}, err
	}
	var r taskResult
	select {
	case r = <-t.done:
	case <-ctx.Done():
		r.err = s.deadlineError(ctx)
	}
	// Counted from the error, not from the arm: an expired task the worker
	// already answered arrives through done, and a cancelled context is
	// not a deadline.
	switch {
	case r.err == nil:
		s.latency.Observe(time.Since(start).Seconds())
	case errors.Is(r.err, ErrDeadline):
		s.deadline.Inc()
	}
	return r.resp, r.err
}

func (s *Service) deadlineError(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.Canceled) {
		return ctx.Err()
	}
	return ErrDeadline
}

// enqueue admits a task without blocking; a full queue is an overload.
func (s *Service) enqueue(t *task) error {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	select {
	case s.tasks <- t:
		return nil
	default:
		s.overload.Inc()
		return ErrOverloaded
	}
}

// worker executes admitted tasks until the queue is closed and drained.
func (s *Service) worker() {
	defer s.wg.Done()
	for t := range s.tasks {
		// A task whose waiter already gave up (deadline hit while
		// queued) is skipped; the engine itself is not interruptible,
		// so a query that starts executing runs to completion.
		if t.ctx.Err() != nil {
			t.done <- taskResult{err: s.deadlineError(t.ctx)}
			continue
		}
		res, st, err := t.p.Run()
		if err != nil {
			t.done <- taskResult{err: err}
			continue
		}
		q := t.p.Query()
		resp := Response{Results: res, Stats: st, Generation: t.p.Generation(), RequestID: q.RequestID}
		if s.cache != nil {
			// Cached without its span tree: a hit answers with the results
			// and costs of this execution, never with its trace.
			cached := resp
			cached.Stats.Trace = nil
			s.cache.put(t.p.Fingerprint(), t.p.Generation(), cached)
		}
		t.done <- taskResult{resp: resp}
	}
}

// Close stops admitting queries, waits for the queued and in-flight ones
// to finish (graceful drain), and stops the workers. Safe to call twice.
func (s *Service) Close() {
	s.sendMu.Lock()
	if s.closed {
		s.sendMu.Unlock()
		return
	}
	s.closed = true
	close(s.tasks)
	s.sendMu.Unlock()
	s.wg.Wait()
}

// Closed reports whether Close has begun.
func (s *Service) Closed() bool {
	s.sendMu.RLock()
	defer s.sendMu.RUnlock()
	return s.closed
}

// Rebuild re-indexes the underlying DB (see stpq.DB.Rebuild). Cached
// results from the previous generation become unreachable immediately —
// cache lookups compare generations — and are evicted lazily.
func (s *Service) Rebuild() error { return s.db.Rebuild() }

// Uptime reports how long the service has been running.
func (s *Service) Uptime() time.Duration { return time.Since(s.started) }

// NewRequestID mints a request identity for a query that arrived without
// one; the cluster coordinator uses the same format, so request IDs read
// uniformly in every event log.
func NewRequestID() string {
	return fmt.Sprintf("req-%016x", rand.Uint64())
}
