package serve

// ingest.go is the HTTP write path: POST /ingest accepts a batch of
// upserts and deletes, lowers it into stpq mutations in a deterministic
// order, and applies it through the DB's WAL-durable write path. The
// response reports the new generation so clients can correlate with
// /query responses (results carry the generation they were computed at).
//
// GET /wal/segments?from=N is the other end of the log: a follower fetches
// the leader's oldest sealed segment holding records at or after N.
//
// Error mapping: malformed/invalid batch → 400, no WAL attached or
// unsupported configuration → 501, shutting down → 503.

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"strconv"

	"stpq"
)

// ObjectJSON is one data object in an IngestRequest.
type ObjectJSON struct {
	ID int64   `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

// FeatureJSON is one feature in an IngestRequest.
type FeatureJSON struct {
	ID       int64    `json:"id"`
	X        float64  `json:"x"`
	Y        float64  `json:"y"`
	Score    float64  `json:"score"`
	Keywords []string `json:"keywords,omitempty"`
}

// IngestRequest is the JSON body of POST /ingest. The whole request is
// applied as one atomic, durable batch in a fixed order: object upserts,
// object deletes, feature upserts (sets in name order), feature deletes.
type IngestRequest struct {
	Objects        []ObjectJSON             `json:"objects,omitempty"`
	DeleteObjects  []int64                  `json:"delete_objects,omitempty"`
	Features       map[string][]FeatureJSON `json:"features,omitempty"`
	DeleteFeatures map[string][]int64       `json:"delete_features,omitempty"`
	// Flush forces a merge into a new base generation after the batch.
	Flush bool `json:"flush,omitempty"`
}

// Mutations lowers the request into the library's mutation order.
func (r IngestRequest) Mutations() []stpq.Mutation {
	var muts []stpq.Mutation
	for _, o := range r.Objects {
		o := o
		muts = append(muts, stpq.Mutation{Op: stpq.OpUpsertObject,
			Object: &stpq.Object{ID: o.ID, X: o.X, Y: o.Y}})
	}
	for _, id := range r.DeleteObjects {
		muts = append(muts, stpq.Mutation{Op: stpq.OpDeleteObject, ID: id})
	}
	for _, name := range sortedKeys(r.Features) {
		for _, f := range r.Features[name] {
			f := f
			muts = append(muts, stpq.Mutation{Op: stpq.OpUpsertFeature, Set: name,
				Feature: &stpq.Feature{ID: f.ID, X: f.X, Y: f.Y, Score: f.Score, Keywords: f.Keywords}})
		}
	}
	for _, name := range sortedKeys(r.DeleteFeatures) {
		for _, id := range r.DeleteFeatures[name] {
			muts = append(muts, stpq.Mutation{Op: stpq.OpDeleteFeature, Set: name, ID: id})
		}
	}
	return muts
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// IngestResponse is the JSON body answering POST /ingest.
type IngestResponse struct {
	// Applied is the number of mutations in the durable batch.
	Applied int `json:"applied"`
	// Generation is the index generation serving the batch.
	Generation uint64 `json:"generation"`
	// Pending is the delta size after the batch (0 right after a merge).
	Pending int `json:"pending"`
	// WALSeq is the WAL sequence number the batch was logged at.
	WALSeq uint64 `json:"wal_seq"`
	// Flushed reports that the request forced a merge.
	Flushed bool `json:"flushed,omitempty"`
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		HTTPError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.Closed() {
		HTTPError(w, http.StatusServiceUnavailable, ErrClosed.Error())
		return
	}
	var req IngestRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		HTTPError(w, http.StatusBadRequest, "malformed request: "+err.Error())
		return
	}
	muts := req.Mutations()
	if len(muts) == 0 && !req.Flush {
		HTTPError(w, http.StatusBadRequest, "empty ingest batch")
		return
	}
	if err := s.db.Apply(muts); err != nil {
		HTTPError(w, ingestStatusOf(err), err.Error())
		return
	}
	s.ingests.Add(int64(len(muts)))
	if req.Flush {
		if err := s.db.Flush(); err != nil {
			HTTPError(w, ingestStatusOf(err), err.Error())
			return
		}
	}
	snap, err := s.db.Snapshot()
	if err != nil {
		HTTPError(w, statusOf(err), err.Error())
		return
	}
	WriteJSON(w, http.StatusOK, IngestResponse{
		Applied:    len(muts),
		Generation: snap.Generation(),
		Pending:    s.db.PendingOps(),
		WALSeq:     s.db.WALSeq(),
		Flushed:    req.Flush,
	})
}

// handleWALSegments answers a follower's fetch: 200 with the segment's raw
// bytes and its first sequence number in X-First-Seq, 204 while no sealed
// segment holds records at or after ?from= (the follower has caught up
// with the active segment), 501 on a DB without a WAL.
func (s *Service) handleWALSegments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		HTTPError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		HTTPError(w, http.StatusBadRequest, "from: "+err.Error())
		return
	}
	first, data, err := s.db.WALSealedSegment(from)
	if err != nil {
		HTTPError(w, ingestStatusOf(err), err.Error())
		return
	}
	if first == 0 {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-First-Seq", strconv.FormatUint(first, 10))
	_, _ = w.Write(data)
}

// ingestStatusOf maps write-path errors onto HTTP status codes.
func ingestStatusOf(err error) int {
	switch {
	case errors.Is(err, stpq.ErrInvalidMutation):
		return http.StatusBadRequest
	case errors.Is(err, stpq.ErrNoWAL), errors.Is(err, stpq.ErrIngestUnsupported):
		return http.StatusNotImplemented
	case errors.Is(err, stpq.ErrNotBuilt):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
