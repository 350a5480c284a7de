package cluster

// coordinator.go is the router. Every node holds the whole DB (a leader
// with its WAL, followers replaying it), so any one replica's answer is
// the answer: the coordinator sends each query to one replica — healthy
// first, then the highest applied replication watermark, then round-robin
// among equals — and returns that replica's results, stats, generation,
// cached flag and span tree as they are. Nothing is merged.
//
// A call retries with exponential backoff on the next replica in that
// order, and hedges: when a replica has not answered within HedgeAfter, a
// duplicate attempt launches on the next one and the first answer wins.

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stpq"
	"stpq/internal/obs"
	"stpq/internal/serve"
)

// CoordinatorConfig tunes the router.
type CoordinatorConfig struct {
	// Replicas are the RPC endpoints ("host:port") of the nodes, each of
	// which holds the whole DB (required, at least one).
	Replicas []string
	// RPCTimeout bounds each RPC end-to-end (default DefaultRPCTimeout).
	RPCTimeout time.Duration
	// RetryMax is the number of extra attempts per call after the first
	// fails with a retryable error (default 2).
	RetryMax int
	// RetryBackoff is the delay before the first retry, doubling per retry
	// (default 25ms).
	RetryBackoff time.Duration
	// HedgeAfter launches a duplicate attempt on the next replica when a
	// call has not answered within this duration; 0 disables hedging.
	HedgeAfter time.Duration
	// HealthInterval is the background health-probe period feeding
	// lag-aware replica ordering (default 2s; negative disables).
	HealthInterval time.Duration
	// EventLogEntries sizes the coordinator's query event ring
	// (0 = obs default, negative disables).
	EventLogEntries int
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = DefaultRPCTimeout
	}
	if c.RetryMax < 0 {
		c.RetryMax = 0
	} else if c.RetryMax == 0 {
		c.RetryMax = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.HealthInterval == 0 {
		c.HealthInterval = 2 * time.Second
	}
	return c
}

// endpoint is one replica with its routing state.
type endpoint struct {
	client     *Client
	appliedSeq atomic.Uint64
	healthy    atomic.Bool
}

// Coordinator routes queries to replicas.
type Coordinator struct {
	cfg     CoordinatorConfig
	eps     []*endpoint
	next    atomic.Uint64 // round-robin offset
	started time.Time

	metrics    *obs.Registry
	tel        *obs.Telemetry
	queries    *obs.Counter
	errors     *obs.Counter
	retries    *obs.Counter
	hedges     *obs.Counter
	nodeErrors *obs.Counter
	latency    *obs.Histogram

	stopHealth chan struct{}
	healthDone chan struct{}
	closeOnce  sync.Once
}

// NewCoordinator builds one client per replica and starts the background
// health prober.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one replica endpoint")
	}
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	c := &Coordinator{
		cfg:        cfg,
		started:    time.Now(),
		metrics:    reg,
		tel:        obs.NewTelemetry(cfg.EventLogEntries, -1, 0, 0),
		queries:    reg.Counter("stpq_cluster_queries_total"),
		errors:     reg.Counter("stpq_cluster_query_errors_total"),
		retries:    reg.Counter("stpq_cluster_retries_total"),
		hedges:     reg.Counter("stpq_cluster_hedges_total"),
		nodeErrors: reg.Counter("stpq_cluster_node_errors_total"),
		latency:    reg.Histogram("stpq_cluster_latency_seconds", obs.LatencyBuckets),
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	for _, addr := range cfg.Replicas {
		ep := &endpoint{client: NewClient(addr, cfg.RPCTimeout)}
		ep.healthy.Store(true)
		c.eps = append(c.eps, ep)
	}
	if cfg.HealthInterval > 0 {
		go c.healthLoop()
	} else {
		close(c.healthDone)
	}
	return c, nil
}

// Close stops the health prober and drops every pooled connection.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stopHealth)
		<-c.healthDone
		for _, ep := range c.eps {
			ep.client.Close()
		}
	})
}

// Metrics returns the coordinator's registry.
func (c *Coordinator) Metrics() *obs.Registry { return c.metrics }

// Uptime reports how long the coordinator has been running.
func (c *Coordinator) Uptime() time.Duration { return time.Since(c.started) }

// RecentQueries returns the coordinator's query event log, newest first.
func (c *Coordinator) RecentQueries(n int) []obs.QueryEvent {
	return c.tel.Events.Recent(n)
}

// healthLoop refreshes every replica's watermark and liveness.
func (c *Coordinator) healthLoop() {
	defer close(c.healthDone)
	ticker := time.NewTicker(c.cfg.HealthInterval)
	defer ticker.Stop()
	c.probeHealth()
	for {
		select {
		case <-c.stopHealth:
			return
		case <-ticker.C:
			c.probeHealth()
		}
	}
}

func (c *Coordinator) probeHealth() {
	var wg sync.WaitGroup
	for _, ep := range c.eps {
		wg.Add(1)
		go func(ep *endpoint) {
			defer wg.Done()
			hr, err := ep.client.Health()
			if err != nil {
				ep.healthy.Store(false)
				return
			}
			ep.healthy.Store(true)
			ep.appliedSeq.Store(hr.AppliedSeq)
		}(ep)
	}
	wg.Wait()
}

// ordered returns the replica preference order for one call: healthy
// first, then highest applied replication watermark, then round-robin
// among equals — the stable sort keeps a rotation that starts one replica
// further on every call. Unhealthy replicas stay in the list, last: health
// data may be stale.
func (c *Coordinator) ordered() []*endpoint {
	n := len(c.eps)
	start := int(c.next.Add(1) % uint64(n))
	out := make([]*endpoint, n)
	for i := range out {
		out[i] = c.eps[(start+i)%n]
	}
	sort.SliceStable(out, func(i, j int) bool {
		if hi, hj := out[i].healthy.Load(), out[j].healthy.Load(); hi != hj {
			return hi
		}
		return out[i].appliedSeq.Load() > out[j].appliedSeq.Load()
	})
	return out
}

// callNode runs one RPC against one replica with failover, retries and
// hedging. The first successful reply wins; non-retryable errors (the
// request itself is invalid) fail immediately and leave the replica's
// health alone; retryable failures mark the replica unhealthy and burn the
// retry budget with exponential backoff, rotating through the replica
// preference order.
func callNode[T any](c *Coordinator, rpc func(*Client) (T, error)) (T, error) {
	var zero T
	eps := c.ordered()
	type attempt struct {
		val T
		err error
	}
	// Buffered for every launch this call can make, so abandoned attempts
	// never block their goroutines.
	results := make(chan attempt, c.cfg.RetryMax+4)
	launched := 0
	launch := func() {
		ep := eps[launched%len(eps)]
		launched++
		go func() {
			v, err := rpc(ep.client)
			if err != nil && retryable(err) {
				ep.healthy.Store(false)
				err = fmt.Errorf("cluster: replica %s: %w", ep.client.Addr(), err)
			}
			results <- attempt{v, err}
		}()
	}
	launch()
	outstanding := 1
	var hedge <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var retry <-chan time.Time
	backoff := c.cfg.RetryBackoff
	retriesUsed := 0
	for {
		select {
		case a := <-results:
			outstanding--
			if a.err == nil {
				return a.val, nil
			}
			if !retryable(a.err) {
				return zero, a.err
			}
			c.nodeErrors.Inc()
			if retry == nil && retriesUsed < c.cfg.RetryMax {
				retriesUsed++
				c.retries.Inc()
				retry = time.After(backoff)
				backoff *= 2
			} else if outstanding == 0 && retry == nil {
				return zero, a.err
			}
		case <-retry:
			retry = nil
			launch()
			outstanding++
		case <-hedge:
			hedge = nil
			c.hedges.Inc()
			launch()
			outstanding++
		}
	}
}

// Do executes one query on one replica and returns its answer as the
// replica gave it; Stats.Trace carries the replica's span tree when the
// query asked for tracing.
func (c *Coordinator) Do(q stpq.Query) (serve.Response, error) {
	start := time.Now()
	c.queries.Inc()
	if q.RequestID == "" {
		q.RequestID = serve.NewRequestID()
	}
	resp, err := c.run(q)
	elapsed := time.Since(start)
	c.recordEvent(q, resp, start, elapsed, err)
	if err != nil {
		c.errors.Inc()
		return serve.Response{}, err
	}
	c.latency.Observe(elapsed.Seconds())
	return resp, nil
}

func (c *Coordinator) run(q stpq.Query) (serve.Response, error) {
	wq := toWire(q)
	reply, err := callNode(c, func(cl *Client) (QueryReply, error) { return cl.Query(wq) })
	if err != nil {
		return serve.Response{}, err
	}
	resp := serve.Response{
		Results:    reply.Results,
		Stats:      reply.Stats,
		Cached:     reply.Cached,
		Generation: reply.Generation,
		RequestID:  q.RequestID,
	}
	if reply.TraceJSON != nil {
		resp.Stats.Trace = new(stpq.Span)
		if err := json.Unmarshal(reply.TraceJSON, resp.Stats.Trace); err != nil {
			return serve.Response{}, fmt.Errorf("cluster: replica span tree: %w", err)
		}
	}
	return resp, nil
}

// recordEvent files the query into the coordinator's event log and shape
// table, keyed by the same canonical shape as the replicas' events so
// /debug/queries on the coordinator lines up with theirs. Duration is the
// coordinator's wall clock, RPC included.
func (c *Coordinator) recordEvent(q stpq.Query, resp serve.Response, start time.Time, elapsed time.Duration, err error) {
	st := stpq.Stats{CPUTime: elapsed}
	if err == nil {
		st = resp.Stats
		st.CPUTime, st.Trace = elapsed, nil
	}
	key := stpq.QueryShape(q)
	ev := stpq.NewQueryEvent(q, key, &st, start, err)
	ev.CacheHit = resp.Cached
	c.tel.Record(ev, key, err == nil)
}
