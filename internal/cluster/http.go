package cluster

// http.go is the coordinator's HTTP front end — wire-compatible with a
// single stpqd's API so clients, load generators and dashboards point at
// a coordinator unchanged:
//
//	POST /query    serve.QueryRequest in, serve.QueryResponse out (plus
//	               node_traces when tracing); explain=true returns the
//	               scatter plan (per-node bounds and wave assignment)
//	GET  /healthz  liveness
//	GET  /readyz   readiness: 503 until every node answers health probes
//	GET  /metrics  coordinator scatter-gather metrics (Prometheus text)
//	GET  /info     aggregate dataset shape (objects summed across nodes)
//	GET  /debug/queries  coordinator query event log (?n= limits)
//
// X-Request-Id is honored inbound, stamped outbound, and propagated over
// the cluster RPC to every node the query touches, so a node's
// /debug/queries attributes its shard of the work to the same request.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"stpq"
	"stpq/internal/obs"
	"stpq/internal/serve"
)

// Handler returns the coordinator's HTTP mux.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", c.handleQuery)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/readyz", c.handleReadyz)
	mux.HandleFunc("/metrics", c.handleMetrics)
	mux.HandleFunc("/info", c.handleInfo)
	mux.HandleFunc("/debug/queries", c.handleDebugQueries)
	return mux
}

// clusterQueryResponse is serve's response plus the per-node span trees
// of a traced scatter-gather.
type clusterQueryResponse struct {
	serve.QueryResponse
	NodeTraces map[int]json.RawMessage `json:"node_traces,omitempty"`
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, q, ok := serve.DecodeQuery(w, r)
	if !ok {
		return
	}
	if req.Explain {
		plan, err := c.Plan(q)
		if err != nil {
			serve.HTTPError(w, statusOf(err), err.Error())
			return
		}
		serve.WriteJSON(w, http.StatusOK, struct {
			RequestID   string     `json:"request_id"`
			Parallelism int        `json:"parallelism"`
			Plan        []PlanNode `json:"plan"`
		}{q.RequestID, c.cfg.Parallelism, plan})
		return
	}
	start := time.Now()
	resp, err := c.Do(q)
	if err != nil {
		serve.HTTPError(w, statusOf(err), err.Error())
		return
	}
	out := clusterQueryResponse{QueryResponse: serve.NewQueryResponse(resp.Results, resp.Stats)}
	out.RequestID = resp.RequestID
	out.Cached = resp.Cached
	out.Generation = resp.Generation
	out.ElapsedUS = time.Since(start).Microseconds()
	if len(resp.NodeTraces) > 0 {
		out.NodeTraces = make(map[int]json.RawMessage, len(resp.NodeTraces))
		for id, data := range resp.NodeTraces {
			out.NodeTraces[id] = json.RawMessage(data)
		}
	}
	serve.WriteJSON(w, http.StatusOK, out)
}

// statusOf maps coordinator errors onto HTTP status codes: validation →
// 400, node overload → 429, everything else (node down, gap, transport)
// → 502 since the failure is downstream of the coordinator.
func statusOf(err error) int {
	var rpc *RPCError
	if errors.As(err, &rpc) {
		switch rpc.Code {
		case errInvalid:
			return http.StatusBadRequest
		case errOverloaded:
			return http.StatusTooManyRequests
		}
		return http.StatusBadGateway
	}
	if errors.Is(err, stpq.ErrInvalidQuery) {
		return http.StatusBadRequest
	}
	return http.StatusBadGateway
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers 200 only when every partition cell has at least
// one replica passing health probes.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, h := range c.nodes {
		ok := false
		for _, ep := range h.eps {
			if ep.healthy.Load() {
				ok = true
				break
			}
		}
		if !ok {
			serve.HTTPError(w, http.StatusServiceUnavailable,
				fmt.Sprintf("node %d has no healthy replica", h.id))
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = c.metrics.Snapshot().WritePrometheus(w)
}

// handleInfo aggregates the nodes' /info payloads: objects sum across
// cells; feature sets and keywords come from any one node (features are
// replicated in full everywhere); generation is the cluster maximum.
func (c *Coordinator) handleInfo(w http.ResponseWriter, r *http.Request) {
	agg := serve.Info{Shards: len(c.nodes)}
	for i, h := range c.nodes {
		info, err := callNode(c, h, func(cl *Client) (serve.Info, error) {
			return cl.Info()
		})
		if err != nil {
			serve.HTTPError(w, statusOf(err), fmt.Sprintf("info from node %d: %v", h.id, err))
			return
		}
		agg.Objects += info.Objects
		if info.Generation > agg.Generation {
			agg.Generation = info.Generation
		}
		if i == 0 {
			agg.FeatureSets = info.FeatureSets
			agg.Keywords = info.Keywords
			agg.Revision = info.Revision
			agg.GoVersion = info.GoVersion
		}
	}
	agg.UptimeSeconds = c.Uptime().Seconds()
	serve.WriteJSON(w, http.StatusOK, agg)
}

// handleDebugQueries serves the coordinator's event log in the JSON shape
// of a node's /debug/queries.
func (c *Coordinator) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil || n < 0 {
		n = 0
	}
	serve.WriteJSON(w, http.StatusOK, struct {
		Queries []obs.QueryEvent `json:"queries"`
	}{c.RecentQueries(n)})
}
