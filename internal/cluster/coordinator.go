// Package cluster serves one DB from several stpqd processes, each a
// whole-DB replica speaking the daemon's ordinary HTTP API: a coordinator
// that forwards each POST /query body to one replica's /query, with
// retries, failover and hedging, and a log-shipping follower that fetches
// the leader's sealed WAL segments from GET /wal/segments and replays them
// through the crash-recovery path, which is what keeps every replica's
// answers identical to the leader's. See DESIGN.md §13.
package cluster

// coordinator.go is the router. Every node holds the whole DB (a leader
// with its WAL, followers replaying it), so any one replica's answer is
// the answer: the coordinator sends each query to one replica — healthy
// first, then the highest applied replication watermark, then round-robin
// among equals — and relays that replica's status and body as they are.
// Nothing is merged or re-encoded.
//
// A call retries with exponential backoff on the next replica in that
// order, and hedges: when a replica has not answered within HedgeAfter, a
// duplicate attempt launches on the next one and the first answer wins.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stpq/internal/obs"
	"stpq/internal/serve"
)

// DefaultTimeout bounds one attempt on a replica, request through reply
// body, when the caller does not configure one.
const DefaultTimeout = 10 * time.Second

// CoordinatorConfig tunes the router.
type CoordinatorConfig struct {
	// Replicas are the HTTP addresses ("host:port", each replica's stpqd
	// -addr) of the nodes, each of which holds the whole DB (required, at
	// least one).
	Replicas []string
	// Timeout bounds each attempt on a replica (default DefaultTimeout).
	Timeout time.Duration
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
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Timeout <= 0 {
		c.Timeout = DefaultTimeout
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
	base       string
	appliedSeq atomic.Uint64
	healthy    atomic.Bool
}

// Coordinator routes queries to replicas.
type Coordinator struct {
	cfg     CoordinatorConfig
	eps     []*endpoint
	client  *http.Client  // keep-alive connections to every replica
	next    atomic.Uint64 // round-robin offset
	started time.Time

	metrics    *obs.Registry
	events     *obs.EventLog
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

// NewCoordinator sets up the replicas' endpoints and starts the background
// health prober.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("cluster: coordinator needs at least one replica endpoint")
	}
	cfg = cfg.withDefaults()
	reg := obs.NewRegistry()
	c := &Coordinator{
		cfg: cfg,
		client: &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 64,
				IdleConnTimeout:     90 * time.Second,
				DisableCompression:  true, // replicas answer plain JSON
			},
		},
		started:    time.Now(),
		metrics:    reg,
		events:     obs.NewEventLog(obs.DefaultEventLogSize),
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
		ep := &endpoint{base: "http://" + addr}
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

// Close stops the health prober and drops every idle connection.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stopHealth)
		<-c.healthDone
		c.client.CloseIdleConnections()
	})
}

// Metrics returns the coordinator's registry.
func (c *Coordinator) Metrics() *obs.Registry { return c.metrics }

// Uptime reports how long the coordinator has been running.
func (c *Coordinator) Uptime() time.Duration { return time.Since(c.started) }

// RecentQueries returns the coordinator's query event log, newest first.
func (c *Coordinator) RecentQueries(n int) []obs.QueryEvent {
	return c.events.Recent(n)
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

// probeHealth reads every replica's GET /info: a 200 is healthy, and its
// ingest.walSeq is the replica's replication watermark.
func (c *Coordinator) probeHealth() {
	var wg sync.WaitGroup
	for _, ep := range c.eps {
		wg.Add(1)
		go func(ep *endpoint) {
			defer wg.Done()
			rep := c.send(context.Background(), ep, http.MethodGet, "/info", nil, "")
			var info serve.Info
			if rep.err != nil || rep.status != http.StatusOK || json.Unmarshal(rep.body, &info) != nil {
				ep.healthy.Store(false)
				return
			}
			ep.healthy.Store(true)
			ep.appliedSeq.Store(info.Ingest.WALSeq)
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

// reply is one replica's answer as it came over the wire, or the transport
// error that stopped it.
type reply struct {
	status int
	ctype  string
	body   []byte
	err    error
}

// retryable reports whether another attempt, on this replica later or on
// another, may go better: a transport failure, an overloaded replica (429)
// or a failure on the replica's side (5xx). Any other 4xx is the client's
// request, which every replica refuses alike.
func (r reply) retryable() bool {
	return r.err != nil || r.status == http.StatusTooManyRequests || r.status >= 500
}

// send makes one request to one replica and reads its whole reply.
func (c *Coordinator) send(ctx context.Context, ep *endpoint, method, path string, body []byte, requestID string) reply {
	req, err := http.NewRequestWithContext(ctx, method, ep.base+path, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	resp, err := c.client.Do(req)
	if err == nil {
		defer resp.Body.Close()
		var data bytes.Buffer
		if resp.ContentLength > 0 {
			data.Grow(int(resp.ContentLength))
		}
		if _, err = data.ReadFrom(resp.Body); err == nil {
			return reply{status: resp.StatusCode, ctype: resp.Header.Get("Content-Type"), body: data.Bytes()}
		}
	}
	return reply{err: fmt.Errorf("cluster: replica %s: %w", ep.base, err)}
}

// route runs one request with failover, retries and hedging. The first
// reply that is not retryable wins: an answer, or a client error, which is
// relayed at once and leaves the replica's health alone. A retryable
// failure marks its replica unhealthy and burns the retry budget with
// exponential backoff, rotating through the replica preference order; once
// the budget is spent the last failure is the call's reply.
func (c *Coordinator) route(ctx context.Context, send func(context.Context, *endpoint) reply) reply {
	// Cancelled on return: attempts still in flight lose the race.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	eps := c.ordered()
	// Buffered for every launch this call can make, so abandoned attempts
	// never block their goroutines.
	results := make(chan reply, c.cfg.RetryMax+2)
	launched := 0
	launch := func() {
		ep := eps[launched%len(eps)]
		launched++
		attempt := func() {
			rep := send(ctx, ep)
			// An attempt the call or its client abandoned says nothing
			// about the replica.
			if rep.retryable() && ctx.Err() == nil {
				ep.healthy.Store(false)
			}
			results <- rep
		}
		// Only a hedge races an attempt; without one, the attempt runs on
		// the caller's goroutine and saves a hand-off per query.
		if c.cfg.HedgeAfter > 0 {
			go attempt()
		} else {
			attempt()
		}
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
		case rep := <-results:
			outstanding--
			if !rep.retryable() {
				return rep
			}
			c.nodeErrors.Inc()
			if retry == nil && retriesUsed < c.cfg.RetryMax {
				retriesUsed++
				c.retries.Inc()
				retry = time.After(backoff)
				backoff *= 2
			} else if outstanding == 0 && retry == nil {
				return rep
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
