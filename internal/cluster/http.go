package cluster

// http.go is the coordinator's HTTP front end — the single stpqd's API, so
// clients, load generators and dashboards point at a coordinator
// unchanged:
//
//	POST /query    forwarded as read to one replica's /query; the
//	               replica's status and body come back unchanged
//	GET  /healthz  liveness
//	GET  /readyz   readiness: 503 while no replica passes health probes
//	GET  /metrics  coordinator routing metrics (Prometheus text)
//	GET  /info     one replica's dataset shape (every replica holds it all)
//	GET  /debug/queries  coordinator query event log (?n= limits)
//
// X-Request-Id is honored inbound, generated when absent, and sent on to
// the replica that answers, so its /debug/queries attributes the work to
// the same request.

import (
	"context"
	"encoding/json"
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

// handleQuery parses the client's body only for its own event log (the
// request ID and the query's shape), and forwards the very bytes it read.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, req, q, ok := serve.DecodeQuery(w, r)
	if !ok {
		return
	}
	start := time.Now()
	c.queries.Inc()
	rep := c.route(r.Context(), func(ctx context.Context, ep *endpoint) reply {
		return c.send(ctx, ep, http.MethodPost, "/query", body, q.RequestID)
	})
	elapsed := time.Since(start)
	err := rep.err
	if err == nil && rep.status != http.StatusOK {
		err = fmt.Errorf("cluster: replica answered HTTP %d", rep.status)
	}
	if err != nil {
		c.errors.Inc()
	} else {
		c.latency.Observe(elapsed.Seconds())
	}
	if !req.Explain {
		c.recordEvent(q, start, elapsed, err)
	}
	relay(w, rep)
}

// relay writes a replica's reply as it came, or 502 when no replica
// answered at all: the failure is downstream of the coordinator.
func relay(w http.ResponseWriter, rep reply) {
	if rep.err != nil {
		serve.HTTPError(w, http.StatusBadGateway, rep.err.Error())
		return
	}
	w.Header().Set("Content-Type", rep.ctype)
	w.WriteHeader(rep.status)
	_, _ = w.Write(rep.body)
}

// recordEvent files the query into the coordinator's event log, labelled
// with the same canonical shape as the replicas' events so /debug/queries
// on the coordinator lines up with theirs. Duration is the coordinator's
// wall clock, forwarding included; the engine's counters are in the
// answering replica's event under the same request ID.
func (c *Coordinator) recordEvent(q stpq.Query, start time.Time, elapsed time.Duration, err error) {
	key := stpq.QueryShape(q)
	ev := stpq.NewQueryEvent(q, key, &stpq.Stats{CPUTime: elapsed}, start, err)
	ev.Shape = key.String()
	c.events.Record(ev)
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
	rep := c.route(r.Context(), func(ctx context.Context, ep *endpoint) reply {
		return c.send(ctx, ep, http.MethodGet, "/info", nil, "")
	})
	var info serve.Info
	if rep.err != nil || rep.status != http.StatusOK || json.Unmarshal(rep.body, &info) != nil {
		relay(w, rep)
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
