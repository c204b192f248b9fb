package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// maxResultBody bounds a shard result upload (a 1024-replica shard of
// 256 species × 16M points would not fit anyway; real shards are far
// smaller).
const maxResultBody = 1 << 30

// maxControlBody bounds the small JSON control bodies (lease,
// heartbeat, fail). A heartbeat's replica-progress list is tens of
// bytes per replica, so 1 MiB covers shards four orders of magnitude
// larger than the default while refusing to buffer junk.
const maxControlBody = 1 << 20

// decodeControl decodes a bounded JSON control body into v, writing
// the error response (413 for an oversized body, 400 otherwise) and
// reporting false when the request cannot proceed.
func decodeControl(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxControlBody)).Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		jsonError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	jsonError(w, http.StatusBadRequest, err)
	return false
}

// Handler is the coordinator's HTTP face, mounted under /fleet/ beside
// the job API:
//
//	POST /fleet/lease              lease one shard ({"worker": id};
//	                               200 Grant, or 204 when idle; with
//	                               "wait": true an idle queue parks the
//	                               call up to MaxLeaseWait first)
//	POST /fleet/shards/{id}/heartbeat  renew + report progress
//	POST /fleet/shards/{id}/result     upload the shard's wire payload
//	POST /fleet/shards/{id}/fail       report a shard failure
//	GET  /fleet/status             lease/requeue counters + shard states
//
// {id} is a GlobalShardID from a Grant. Heartbeat, result and fail
// answer 410 Gone when the lease (or its job) no longer exists — the
// worker's signal to abandon the shard.
type Handler struct {
	c   *Coordinator
	mux *http.ServeMux
}

// NewHandler wraps a coordinator in the HTTP API.
func NewHandler(c *Coordinator) *Handler {
	h := &Handler{c: c, mux: http.NewServeMux()}
	h.mux.HandleFunc("POST /fleet/lease", h.handleLease)
	h.mux.HandleFunc("POST /fleet/shards/{id}/heartbeat", h.handleHeartbeat)
	h.mux.HandleFunc("POST /fleet/shards/{id}/result", h.handleResult)
	h.mux.HandleFunc("POST /fleet/shards/{id}/fail", h.handleFail)
	h.mux.HandleFunc("GET /fleet/status", h.handleStatus)
	return h
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

func jsonError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

func jsonOK(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// leaseRequest is the POST /fleet/lease body.
type leaseRequest struct {
	Worker string `json:"worker"`
	// Wait parks the call on an empty queue until a shard becomes
	// leasable or MaxLeaseWait passes. Without it the call answers at
	// once.
	Wait bool `json:"wait,omitempty"`
}

// heartbeatRequest is the POST /fleet/shards/{id}/heartbeat body.
type heartbeatRequest struct {
	Worker   string            `json:"worker"`
	Replicas []ReplicaProgress `json:"replicas,omitempty"`
}

// failRequest is the POST /fleet/shards/{id}/fail body.
type failRequest struct {
	Worker string `json:"worker"`
	Error  string `json:"error"`
}

// statusResponse is the GET /fleet/status body.
type statusResponse struct {
	Jobs     int          `json:"jobs"`
	Shards   ShardSummary `json:"shards"`
	Counters Counters     `json:"counters"`
}

func (h *Handler) handleLease(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !decodeControl(w, r, &req) {
		return
	}
	if req.Worker == "" {
		jsonError(w, http.StatusBadRequest, fmt.Errorf("lease request names no worker"))
		return
	}
	var wait time.Duration
	if req.Wait {
		wait = MaxLeaseWait
	}
	grant, ok := h.c.Lease(r.Context(), req.Worker, wait)
	if !ok {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	jsonOK(w, http.StatusOK, grant)
}

// shardFromPath resolves the {id} path segment.
func shardFromPath(w http.ResponseWriter, r *http.Request) (jobID, shardID string, ok bool) {
	jobID, shardID, err := SplitShardID(r.PathValue("id"))
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return "", "", false
	}
	return jobID, shardID, true
}

// reportLeaseErr maps coordinator errors onto status codes: ErrGone is
// the lease-protocol 410, anything else a 400 (the payload or request
// was wrong, retrying the same bytes cannot help).
func reportLeaseErr(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrGone) {
		jsonError(w, http.StatusGone, err)
		return
	}
	jsonError(w, http.StatusBadRequest, err)
}

func (h *Handler) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	jobID, shardID, ok := shardFromPath(w, r)
	if !ok {
		return
	}
	var req heartbeatRequest
	if !decodeControl(w, r, &req) {
		return
	}
	if err := h.c.Heartbeat(jobID, shardID, req.Worker, req.Replicas); err != nil {
		reportLeaseErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *Handler) handleResult(w http.ResponseWriter, r *http.Request) {
	jobID, shardID, ok := shardFromPath(w, r)
	if !ok {
		return
	}
	data, err := readAllLimit(r.Body, maxResultBody)
	if err != nil {
		jsonError(w, http.StatusBadRequest, err)
		return
	}
	if err := h.c.Result(jobID, shardID, r.URL.Query().Get("worker"), data); err != nil {
		reportLeaseErr(w, err)
		return
	}
	jsonOK(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (h *Handler) handleFail(w http.ResponseWriter, r *http.Request) {
	jobID, shardID, ok := shardFromPath(w, r)
	if !ok {
		return
	}
	var req failRequest
	if !decodeControl(w, r, &req) {
		return
	}
	if err := h.c.Fail(jobID, shardID, req.Worker, req.Error); err != nil {
		reportLeaseErr(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (h *Handler) handleStatus(w http.ResponseWriter, r *http.Request) {
	jobs, shards := h.c.Summary()
	jsonOK(w, http.StatusOK, statusResponse{Jobs: jobs, Shards: shards, Counters: h.c.Counters()})
}
