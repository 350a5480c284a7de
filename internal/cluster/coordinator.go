package cluster

// coordinator.go is the scatter-gather coordinator: it mirrors the wave
// loop of internal/shard's Engine.run across the process boundary. For a
// query it probes every node's admissible upper bound, sorts nodes by
// bound (descending, ties by node id ascending), fans the query out in
// waves of Parallelism, and terminates as soon as the k-th merged score
// strictly exceeds the next node's bound. Because every node's bound is
// admissible and the merge runs under the engine-wide result total order
// (score descending, ties by ascending id), the merged top-k is
// byte-identical to the single-process engine — independent of wave
// composition, retries and hedging.
//
// Per-node calls fail over across replicas (leader first, then followers
// by applied replication watermark) with exponential-backoff retries, and
// hedge: when a node has not answered within HedgeAfter, a duplicate
// attempt launches on the next replica and the first answer wins.

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stpq"
	"stpq/internal/obs"
	"stpq/internal/serve"
)

// CoordinatorConfig tunes the scatter-gather coordinator.
type CoordinatorConfig struct {
	// Map is the partition map (required, validated).
	Map Map
	// Parallelism is the scatter wave width (default: all nodes at once).
	Parallelism int
	// RPCTimeout bounds each RPC end-to-end (default DefaultRPCTimeout).
	RPCTimeout time.Duration
	// RetryMax is the number of extra attempts per node call after the
	// first fails with a retryable error (default 2).
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
	if c.Parallelism <= 0 {
		c.Parallelism = len(c.Map.Nodes)
	}
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

// endpoint is one replica of a node with its routing state.
type endpoint struct {
	client     *Client
	leader     bool
	appliedSeq atomic.Uint64
	healthy    atomic.Bool
}

// nodeHandle is one partition cell's replicas.
type nodeHandle struct {
	id  int
	eps []*endpoint // index 0 is the leader
}

// ordered returns the replica preference order: highest applied
// replication watermark first, the leader winning ties, unhealthy
// replicas last (still tried — health data may be stale).
func (h *nodeHandle) ordered() []*endpoint {
	out := make([]*endpoint, len(h.eps))
	copy(out, h.eps)
	sort.SliceStable(out, func(i, j int) bool {
		if hi, hj := out[i].healthy.Load(), out[j].healthy.Load(); hi != hj {
			return hi
		}
		if si, sj := out[i].appliedSeq.Load(), out[j].appliedSeq.Load(); si != sj {
			return si > sj
		}
		return out[i].leader && !out[j].leader
	})
	return out
}

// Coordinator fans queries out across the cluster.
type Coordinator struct {
	cfg     CoordinatorConfig
	nodes   []*nodeHandle
	started time.Time

	metrics    *obs.Registry
	tel        *obs.Telemetry
	queries    *obs.Counter
	errors     *obs.Counter
	retries    *obs.Counter
	hedges     *obs.Counter
	nodeErrors *obs.Counter
	fanout     *obs.Counter
	pruned     *obs.Counter
	latency    *obs.Histogram

	stopHealth chan struct{}
	healthDone chan struct{}
	closeOnce  sync.Once
}

// NewCoordinator validates the map, builds one client per replica, and
// starts the background health prober.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
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
		fanout:     reg.Counter("stpq_cluster_fanout_total"),
		pruned:     reg.Counter("stpq_cluster_pruned_total"),
		latency:    reg.Histogram("stpq_cluster_latency_seconds", obs.LatencyBuckets),
		stopHealth: make(chan struct{}),
		healthDone: make(chan struct{}),
	}
	for _, spec := range cfg.Map.Nodes {
		h := &nodeHandle{id: spec.ID}
		lead := &endpoint{client: NewClient(spec.Leader, cfg.RPCTimeout), leader: true}
		lead.healthy.Store(true)
		h.eps = append(h.eps, lead)
		for _, f := range spec.Followers {
			ep := &endpoint{client: NewClient(f, cfg.RPCTimeout)}
			ep.healthy.Store(true)
			h.eps = append(h.eps, ep)
		}
		c.nodes = append(c.nodes, h)
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
		for _, h := range c.nodes {
			for _, ep := range h.eps {
				ep.client.Close()
			}
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
	for _, h := range c.nodes {
		for _, ep := range h.eps {
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
	}
	wg.Wait()
}

// callNode runs one RPC against a node with replica failover, retries and
// hedging. The first successful reply wins; non-retryable errors fail
// immediately; retryable failures burn the retry budget with exponential
// backoff, rotating through the replica preference order.
func callNode[T any](c *Coordinator, h *nodeHandle, rpc func(*Client) (T, error)) (T, error) {
	var zero T
	eps := h.ordered()
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
			if err != nil {
				ep.healthy.Store(false)
			}
			results <- attempt{v, err}
		}()
	}
	launch()
	outstanding := 1
	var hedge <-chan time.Time
	if c.cfg.HedgeAfter > 0 && len(eps) > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var retry <-chan time.Time
	backoff := c.cfg.RetryBackoff
	retriesUsed := 0
	var lastErr error
	for {
		select {
		case a := <-results:
			outstanding--
			if a.err == nil {
				return a.val, nil
			}
			lastErr = a.err
			c.nodeErrors.Inc()
			if !retryable(a.err) {
				return zero, a.err
			}
			if retry == nil && retriesUsed < c.cfg.RetryMax {
				retriesUsed++
				c.retries.Inc()
				retry = time.After(backoff)
				backoff *= 2
			} else if outstanding == 0 && retry == nil {
				return zero, fmt.Errorf("cluster: node %d: %w", h.id, lastErr)
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

// resultBefore is the engine-wide result total order (score descending,
// ties by ascending id) — mirror of core.ResultBefore.
func resultBefore(a, b stpq.Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.ID < b.ID
}

// mergeTopK folds one node's sorted results into the merged top-k.
func mergeTopK(acc, more []stpq.Result, k int) []stpq.Result {
	acc = append(acc, more...)
	sort.Slice(acc, func(i, j int) bool { return resultBefore(acc[i], acc[j]) })
	if len(acc) > k {
		acc = acc[:k]
	}
	return acc
}

// ClusterResponse is the outcome of one coordinated query.
type ClusterResponse struct {
	Results []stpq.Result
	// Stats sums the engine counters of the queried nodes (CPUTime is their
	// summed CPU, not the wall clock); ShardFanout and ShardPruned count the
	// nodes queried / skipped by early termination.
	Stats stpq.Stats
	// Wall is the coordinator-side wall time of the whole scatter-gather.
	Wall time.Duration
	// Cached reports that every queried node answered from its result cache.
	Cached     bool
	Generation uint64
	RequestID  string
	// NodeTraces maps node id → that node's span tree JSON, present when
	// the query requested tracing.
	NodeTraces map[int][]byte
}

// nodeCand is one node with its probed bound.
type nodeCand struct {
	h     *nodeHandle
	bound float64
}

// PlanNode is one node's entry in an explain plan.
type PlanNode struct {
	ID        int     `json:"id"`
	Bound     float64 `json:"bound"`
	Wave      int     `json:"wave"`
	Leader    string  `json:"leader"`
	Followers int     `json:"followers"`
}

// Plan probes every node's bound and returns the scatter order the
// coordinator would use, without executing the query.
func (c *Coordinator) Plan(q stpq.Query) ([]PlanNode, error) {
	cands, err := c.probeBounds(toWire(q))
	if err != nil {
		return nil, err
	}
	par := c.waveWidth(q)
	nodes := make([]PlanNode, len(cands))
	for i, cand := range cands {
		spec := c.cfg.Map.Nodes[cand.h.id]
		nodes[i] = PlanNode{
			ID:        cand.h.id,
			Bound:     cand.bound,
			Wave:      i / par,
			Leader:    spec.Leader,
			Followers: len(spec.Followers),
		}
	}
	return nodes, nil
}

// probeBounds collects every node's admissible bound (with failover) and
// sorts the scatter order: bound descending, ties by node id ascending.
func (c *Coordinator) probeBounds(wq WireQuery) ([]nodeCand, error) {
	cands := make([]nodeCand, len(c.nodes))
	errs := make([]error, len(c.nodes))
	var wg sync.WaitGroup
	for i, h := range c.nodes {
		wg.Add(1)
		go func(i int, h *nodeHandle) {
			defer wg.Done()
			reply, err := callNode(c, h, func(cl *Client) (BoundReply, error) {
				return cl.Bound(wq)
			})
			cands[i] = nodeCand{h: h, bound: reply.Bound}
			errs[i] = err
		}(i, h)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		if cands[i].bound != cands[j].bound {
			return cands[i].bound > cands[j].bound
		}
		return cands[i].h.id < cands[j].h.id
	})
	return cands, nil
}

// Do executes one query across the cluster: probe, sort, scatter in
// waves, merge, terminate early on the strict-inequality pruning rule.
func (c *Coordinator) Do(q stpq.Query) (*ClusterResponse, error) {
	start := time.Now()
	c.queries.Inc()
	if q.RequestID == "" {
		q.RequestID = serve.NewRequestID()
	}
	resp, err := c.run(q, toWire(q))
	elapsed := time.Since(start)
	c.recordEvent(q, resp, start, elapsed, err)
	if err != nil {
		c.errors.Inc()
		return nil, err
	}
	resp.Wall = elapsed
	c.latency.Observe(elapsed.Seconds())
	return resp, nil
}

// run is the wave loop — the network mirror of shard.Engine.run.
func (c *Coordinator) run(q stpq.Query, wq WireQuery) (*ClusterResponse, error) {
	cands, err := c.probeBounds(wq)
	if err != nil {
		return nil, err
	}
	resp := &ClusterResponse{RequestID: q.RequestID, Cached: true}
	if wq.Trace {
		resp.NodeTraces = make(map[int][]byte)
	}
	type nodeOut struct {
		id    int
		reply QueryReply
		err   error
	}
	par := c.waveWidth(q)
	queried := 0
	for next := 0; next < len(cands); {
		if len(resp.Results) >= q.K && resp.Results[q.K-1].Score > cands[next].bound {
			break // every remaining node is strictly out-scored
		}
		end := next + par
		if end > len(cands) {
			end = len(cands)
		}
		wave := make([]nodeOut, end-next)
		var wg sync.WaitGroup
		for i := range wave {
			h := cands[next+i].h
			wave[i].id = h.id
			wg.Add(1)
			go func(out *nodeOut, h *nodeHandle) {
				defer wg.Done()
				out.reply, out.err = callNode(c, h, func(cl *Client) (QueryReply, error) {
					return cl.Query(wq)
				})
			}(&wave[i], h)
		}
		wg.Wait()
		for i := range wave {
			if wave[i].err != nil {
				return nil, fmt.Errorf("cluster: query on node %d: %w", wave[i].id, wave[i].err)
			}
			r := &wave[i].reply
			resp.Results = mergeTopK(resp.Results, r.Results, q.K)
			resp.Stats.Add(r.Stats)
			resp.Cached = resp.Cached && r.Cached
			if r.Generation > resp.Generation {
				resp.Generation = r.Generation
			}
			if resp.NodeTraces != nil && r.TraceJSON != nil {
				resp.NodeTraces[wave[i].id] = r.TraceJSON
			}
		}
		queried += len(wave)
		next = end
	}
	resp.Stats.ShardFanout = queried
	resp.Stats.ShardPruned = len(cands) - queried
	c.fanout.Add(int64(queried))
	c.pruned.Add(int64(resp.Stats.ShardPruned))
	return resp, nil
}

// recordEvent files the merged query into the coordinator's event log and
// shape table, keyed by the same canonical shape as single-node events so
// /debug/queries on the coordinator attributes the remote work. Duration is
// the coordinator's wall clock, not the nodes' summed CPU: the merged
// cluster-level cost waveWidth reads.
func (c *Coordinator) recordEvent(q stpq.Query, resp *ClusterResponse, start time.Time, elapsed time.Duration, err error) {
	st := stpq.Stats{CPUTime: elapsed}
	cached := false
	if err == nil {
		st, cached = resp.Stats, resp.Cached
		st.CPUTime, st.Trace = elapsed, nil
	}
	key := stpq.QueryShape(q)
	ev := stpq.NewQueryEvent(q, key, &st, start, err)
	ev.CacheHit = cached
	c.tel.Record(ev, key, err == nil)
}

// cheapLatency is the recorded mean cost at or below which a query's waves
// are serialized: at this cost the pruning won by evaluating the
// termination rule after every node outweighs the lost overlap.
const cheapLatency = 5 * time.Millisecond

// waveWidth is the scatter wave width for one query: the configured
// parallelism, narrowed to one node per wave once the recorded per-shape
// cost (warm: at least MinPredictSamples executions) shows the query is
// cheap enough that a wide scatter mostly does work the pruning rule would
// have skipped. Results are unaffected — the strict-inequality prune is
// width-independent.
func (c *Coordinator) waveWidth(q stpq.Query) int {
	cost, samples := c.tel.Shapes.Cost(stpq.QueryShape(q))
	if len(c.nodes) > 1 && samples >= obs.MinPredictSamples && cost <= cheapLatency {
		return 1
	}
	return c.cfg.Parallelism
}
