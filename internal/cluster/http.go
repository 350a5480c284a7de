package cluster

// http.go is the coordinator's HTTP front end — wire-compatible with a
// single stpqd's API so clients, load generators and dashboards point at
// a coordinator unchanged:
//
//	POST /query    serve.QueryRequest in, the answering replica's
//	               serve.QueryResponse out (explain is a replica's own
//	               /query's business: 400 here)
//	GET  /healthz  liveness
//	GET  /readyz   readiness: 503 while no replica passes health probes
//	GET  /metrics  coordinator routing metrics (Prometheus text)
//	GET  /info     one replica's dataset shape (every replica holds it all)
//	GET  /debug/queries  coordinator query event log (?n= limits)
//
// X-Request-Id is honored inbound, stamped outbound, and propagated over
// the cluster RPC to the replica that answers, so its /debug/queries
// attributes the work to the same request.

import (
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

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, q, ok := serve.DecodeQuery(w, r)
	if !ok {
		return
	}
	if req.Explain {
		serve.HTTPError(w, http.StatusBadRequest, "explain is answered by a replica's own /query, not the coordinator")
		return
	}
	start := time.Now()
	resp, err := c.Do(q)
	if err != nil {
		serve.HTTPError(w, statusOf(err), err.Error())
		return
	}
	out := serve.NewQueryResponse(resp.Results, resp.Stats)
	out.RequestID = resp.RequestID
	out.Cached = resp.Cached
	out.Generation = resp.Generation
	out.ElapsedUS = time.Since(start).Microseconds()
	serve.WriteJSON(w, http.StatusOK, out)
}

// statusOf maps coordinator errors onto HTTP status codes: validation →
// 400, replica overload → 429, everything else (replica down, transport)
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

// handleReadyz answers 200 while at least one replica passes health
// probes.
func (c *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	for _, ep := range c.eps {
		if ep.healthy.Load() {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
			return
		}
	}
	serve.HTTPError(w, http.StatusServiceUnavailable, "no healthy replica")
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = c.metrics.Snapshot().WritePrometheus(w)
}

// handleInfo serves one replica's /info payload with the coordinator's
// uptime: every replica holds the whole dataset.
func (c *Coordinator) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := callNode(c, func(cl *Client) (serve.Info, error) { return cl.Info() })
	if err != nil {
		serve.HTTPError(w, statusOf(err), "info: "+err.Error())
		return
	}
	info.UptimeSeconds = c.Uptime().Seconds()
	serve.WriteJSON(w, http.StatusOK, info)
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
