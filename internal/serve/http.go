package serve

// http.go is the HTTP front end used by cmd/stpqd:
//
//	POST /query    JSON query in, JSON results + per-query stats out
//	POST /ingest   JSON mutation batch in, applied through the WAL (ingest.go)
//	GET  /wal/segments  a sealed WAL segment for a follower (ingest.go)
//	GET  /healthz  liveness (503 once Close has begun)
//	GET  /readyz   alias of /healthz (cmd/stpqd answers both with 503
//	               itself while the index is still building)
//	GET  /metrics  Prometheus text format: DB registry, then serve registry
//	GET  /info     dataset shape + build/uptime, for load generators
//	GET  /debug/queries  recent query event log (?n= limits; newest first)
//	GET  /debug/slow     slow-query log with complete span trees
//	GET  /debug/shapes   per-shape query counts and mean costs
//
// Error mapping: invalid query → 400, body over MaxQueryBytes → 413,
// queue full → 429, deadline → 504, shutting down → 503.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"stpq"
)

// QueryRequest is the JSON body of POST /query. Enumerations are spelled
// as strings; missing fields take the library defaults (range variant,
// STPS algorithm, Jaccard similarity).
type QueryRequest struct {
	K          int                 `json:"k"`
	Radius     float64             `json:"radius"`
	Lambda     float64             `json:"lambda"`
	Keywords   map[string][]string `json:"keywords"`
	Variant    string              `json:"variant,omitempty"`    // range | influence | nn
	Algorithm  string              `json:"algorithm,omitempty"`  // stps | stds
	Similarity string              `json:"similarity,omitempty"` // jaccard | dice | cosine | overlap
	// Trace forces full span collection for this query (bypassing the
	// result cache); the span tree comes back in stats.trace.
	Trace bool `json:"trace,omitempty"`
	// Explain skips execution and returns the query plan and shape instead
	// of results.
	Explain bool `json:"explain,omitempty"`
}

// Query lowers the request into a library query, rejecting unknown
// enumeration spellings with errors that wrap stpq.ErrInvalidQuery.
func (r QueryRequest) Query() (stpq.Query, error) {
	q := stpq.Query{K: r.K, Radius: r.Radius, Lambda: r.Lambda, Keywords: r.Keywords}
	switch r.Variant {
	case "", "range":
		q.Variant = stpq.Range
	case "influence":
		q.Variant = stpq.Influence
	case "nn", "nearest-neighbor":
		q.Variant = stpq.NearestNeighbor
	default:
		return q, fmt.Errorf("%w: unknown variant %q", stpq.ErrInvalidQuery, r.Variant)
	}
	switch r.Algorithm {
	case "", "stps":
		q.Algorithm = stpq.STPS
	case "stds":
		q.Algorithm = stpq.STDS
	default:
		return q, fmt.Errorf("%w: unknown algorithm %q", stpq.ErrInvalidQuery, r.Algorithm)
	}
	switch r.Similarity {
	case "", "jaccard":
		q.Similarity = stpq.JaccardSim
	case "dice":
		q.Similarity = stpq.DiceSim
	case "cosine":
		q.Similarity = stpq.CosineSim
	case "overlap":
		q.Similarity = stpq.OverlapSim
	default:
		return q, fmt.Errorf("%w: unknown similarity %q", stpq.ErrInvalidQuery, r.Similarity)
	}
	q.Trace = r.Trace
	return q, nil
}

// ResultJSON is one ranked object in a QueryResponse.
type ResultJSON struct {
	ID    int64   `json:"id"`
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Score float64 `json:"score"`
}

// StatsJSON is the per-query cost breakdown in a QueryResponse.
type StatsJSON struct {
	CPUMicros      int64      `json:"cpu_us"`
	IOMicros       int64      `json:"io_us"`
	TotalMicros    int64      `json:"total_us"`
	LogicalReads   int64      `json:"logical_reads"`
	PhysicalReads  int64      `json:"physical_reads"`
	Combinations   int        `json:"combinations,omitempty"`
	FeaturesPulled int        `json:"features_pulled,omitempty"`
	ObjectsScored  int        `json:"objects_scored,omitempty"`
	ShardFanout    int        `json:"shard_fanout,omitempty"`
	ShardPruned    int        `json:"shard_pruned,omitempty"`
	Trace          *stpq.Span `json:"trace,omitempty"`
}

// QueryResponse is the JSON body answering POST /query.
type QueryResponse struct {
	Results    []ResultJSON `json:"results"`
	Stats      StatsJSON    `json:"stats"`
	Cached     bool         `json:"cached"`
	Generation uint64       `json:"generation"`
	ElapsedUS  int64        `json:"elapsed_us"`
	// RequestID echoes the X-Request-Id header (or the generated one); the
	// same ID keys the query's record in /debug/queries.
	RequestID string `json:"request_id"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Reason is the machine-readable rejection class ("queue-full",
	// "deadline"), so load generators can break down non-2xx responses
	// without parsing error prose.
	Reason string `json:"reason,omitempty"`
}

// Handler returns the service's HTTP mux.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/wal/segments", s.handleWALSegments)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/info", s.handleInfo)
	mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	mux.HandleFunc("/debug/slow", s.handleDebugSlow)
	mux.HandleFunc("/debug/shapes", s.handleDebugShapes)
	return mux
}

// MaxQueryBytes caps a POST /query body. A query is a few hundred bytes;
// a larger body is refused with 413 before it is decoded.
const MaxQueryBytes = 1 << 20

// DecodeQuery is the one POST /query request decoder, shared by the
// single-process service and the cluster coordinator: method check, a body
// read once through a MaxQueryBytes cap, strict JSON decode, enumeration
// lowering, and the request identity — an inbound X-Request-Id (proxies,
// retries, a coordinator) is honored, one is generated otherwise, and it
// is echoed so the caller can join the response to /debug/queries and the
// span tree. It returns the body as read, so the coordinator can forward
// the very bytes it parsed. On failure it has written the error response
// and reports ok false.
func DecodeQuery(w http.ResponseWriter, r *http.Request) (body []byte, req QueryRequest, q stpq.Query, ok bool) {
	if r.Method != http.MethodPost {
		HTTPError(w, http.StatusMethodNotAllowed, "POST only")
		return nil, req, q, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxQueryBytes))
	if err != nil {
		status := http.StatusBadRequest
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		HTTPError(w, status, "malformed request: "+err.Error())
		return nil, req, q, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		HTTPError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return nil, req, q, false
	}
	if q, err = req.Query(); err != nil {
		HTTPError(w, http.StatusBadRequest, err.Error())
		return nil, req, q, false
	}
	q.RequestID = r.Header.Get("X-Request-Id")
	if q.RequestID == "" {
		q.RequestID = NewRequestID()
	}
	w.Header().Set("X-Request-Id", q.RequestID)
	return body, req, q, true
}

// NewQueryResponse renders results and their cost breakdown as the POST
// /query response body; the caller fills in the envelope (request ID,
// cached, generation, elapsed).
func NewQueryResponse(results []stpq.Result, st stpq.Stats) QueryResponse {
	out := QueryResponse{
		Results: make([]ResultJSON, len(results)),
		Stats: StatsJSON{
			CPUMicros:      st.CPUTime.Microseconds(),
			IOMicros:       st.IOTime.Microseconds(),
			TotalMicros:    st.Total().Microseconds(),
			LogicalReads:   st.LogicalReads,
			PhysicalReads:  st.PhysicalReads,
			Combinations:   st.Combinations,
			FeaturesPulled: st.FeaturesPulled,
			ObjectsScored:  st.ObjectsScored,
			ShardFanout:    st.ShardFanout,
			ShardPruned:    st.ShardPruned,
			Trace:          st.Trace,
		},
	}
	for i, res := range results {
		out.Results[i] = ResultJSON(res)
	}
	return out
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	_, req, q, ok := DecodeQuery(w, r)
	if !ok {
		return
	}
	if req.Explain {
		ex, err := s.db.Explain(q)
		if err != nil {
			HTTPError(w, statusOf(err), err.Error())
			return
		}
		WriteJSON(w, http.StatusOK, struct {
			RequestID string        `json:"request_id"`
			Explain   *stpq.Explain `json:"explain"`
		}{q.RequestID, ex})
		return
	}
	start := time.Now()
	resp, err := s.Do(r.Context(), q)
	if err != nil {
		WriteJSON(w, statusOf(err), errorResponse{Error: err.Error(), Reason: reasonOf(err)})
		return
	}
	out := NewQueryResponse(resp.Results, resp.Stats)
	out.RequestID = resp.RequestID
	out.Cached = resp.Cached
	out.Generation = resp.Generation
	out.ElapsedUS = time.Since(start).Microseconds()
	WriteJSON(w, http.StatusOK, out)
}

// statusOf maps service and validation errors onto HTTP status codes.
func statusOf(err error) int {
	switch {
	case errors.Is(err, stpq.ErrInvalidQuery):
		return http.StatusBadRequest
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDeadline):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrClosed), errors.Is(err, stpq.ErrNotBuilt):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// reasonOf classifies rejection errors for the errorResponse Reason field.
func reasonOf(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return "queue-full"
	case errors.Is(err, ErrDeadline):
		return "deadline"
	default:
		return ""
	}
}

func (s *Service) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Closed() {
		HTTPError(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.db.WriteMetricsPrometheus(w); err != nil {
		return
	}
	_ = s.metrics.Snapshot().WritePrometheus(w)
}

// Info is the JSON body of GET /info: enough dataset shape for a load
// generator to synthesize plausible queries, plus build and uptime
// identity for operators.
type Info struct {
	Objects     int                 `json:"objects"`
	FeatureSets map[string]int      `json:"feature_sets"`
	Keywords    map[string][]string `json:"keywords"`
	Generation  uint64              `json:"generation"`
	// Revision is the VCS revision the binary was built from ("-dirty"
	// suffix for modified trees, "unknown" without build info).
	Revision      string  `json:"revision"`
	GoVersion     string  `json:"go_version"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Shards        int     `json:"shards"`
	// Ingest summarizes the live write path: pending mutations, sealed
	// runs, merge-path counters and the latest merge/stall durations.
	Ingest stpq.IngestStatus `json:"ingest"`
}

// infoKeywords caps the per-set keyword sample in /info.
const infoKeywords = 100

// buildRevision resolves the binary's VCS revision once.
var buildRevision = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
})

// InfoSnapshot assembles the dataset-shape description served at GET
// /info. A cluster coordinator probes a replica's health with it (its
// ingest.walSeq is the replication watermark) and relays one replica's to
// describe the whole cluster to load generators.
func (s *Service) InfoSnapshot() (Info, error) {
	snap, err := s.db.Snapshot()
	if err != nil {
		return Info{}, err
	}
	info := Info{
		Objects:       snap.NumObjects(),
		FeatureSets:   snap.NumFeatures(),
		Keywords:      make(map[string][]string, len(snap.FeatureSetNames())),
		Generation:    snap.Generation(),
		Revision:      buildRevision(),
		GoVersion:     runtime.Version(),
		UptimeSeconds: s.Uptime().Seconds(),
		Shards:        snap.NumShards(),
		Ingest:        s.db.IngestStatus(),
	}
	for _, name := range snap.FeatureSetNames() {
		stats, err := s.db.KeywordStats(name)
		if err != nil {
			return Info{}, err
		}
		n := len(stats)
		if n > infoKeywords {
			n = infoKeywords
		}
		kws := make([]string, n)
		for i := 0; i < n; i++ {
			kws[i] = stats[i].Keyword
		}
		info.Keywords[name] = kws
	}
	return info, nil
}

func (s *Service) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := s.InfoSnapshot()
	if err != nil {
		HTTPError(w, statusOf(err), err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, info)
}

// debugN parses the ?n= limit of the /debug endpoints (0 = all held).
func debugN(r *http.Request) int {
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// handleDebugQueries serves the recent-query event log, newest first.
func (s *Service) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		Queries []stpq.QueryEvent `json:"queries"`
	}{s.db.RecentQueries(debugN(r))})
}

// handleDebugSlow serves the slow-query log: every entry carries a
// complete span tree.
func (s *Service) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		Queries []stpq.QueryEvent `json:"queries"`
	}{s.db.SlowQueries(debugN(r))})
}

// handleDebugShapes serves the per-shape statistics: how many times each
// query shape ran and its mean costs.
func (s *Service) handleDebugShapes(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, struct {
		Shapes []stpq.ShapeStat `json:"shapes"`
	}{s.db.QueryShapes()})
}

// WriteJSON writes v as the JSON response body with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// HTTPError writes a JSON error body ({"error": msg}).
func HTTPError(w http.ResponseWriter, status int, msg string) {
	WriteJSON(w, status, errorResponse{Error: msg})
}
