package job

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"parsurf"
	"parsurf/internal/store"
)

// maxSubmitBody bounds the POST /jobs body. Submissions are spec JSON
// — kilobytes, not megabytes — so 4 MiB is generous headroom while
// still refusing to buffer an adversarial body into memory.
const maxSubmitBody = 4 << 20

// Server is the HTTP face of a Manager: submit a spec as JSON, poll
// status, stream progress, fetch results, cancel. It implements
// http.Handler.
//
//	POST   /jobs             submit (see SubmitRequest)
//	GET    /jobs             list job statuses (submission order;
//	                         ?state=, ?limit=, ?after= filter and page)
//	GET    /jobs/{id}        one job's status
//	GET    /jobs/{id}/events SSE progress frames until terminal
//	GET    /jobs/{id}/result series (JSON; ?format=csv&variant=v for CSV)
//	POST   /jobs/{id}/cancel cancel
//	GET    /healthz          readiness probe
//	GET    /version          build/version stamp
type Server struct {
	mgr     *Manager
	mux     *http.ServeMux
	version string
	// eventInterval paces SSE progress frames between state changes.
	eventInterval time.Duration
	// heartbeatInterval paces SSE comment frames that keep idle
	// connections alive through proxies and surface dead peers.
	heartbeatInterval time.Duration
	// writeTimeout bounds each SSE write; a peer that stops draining
	// the stream is disconnected instead of blocking the handler
	// goroutine forever.
	writeTimeout time.Duration
}

// SubmitRequest is the POST /jobs body: one spec (or several sweep
// variants) in the specfile JSON schema, plus the run shape. Exactly
// one of "spec" and "specs" must be present. "nocache": true forces a
// run even when the result cache holds a matching completed result.
type SubmitRequest struct {
	Spec     *parsurf.SessionSpec   `json:"spec,omitempty"`
	Specs    []*parsurf.SessionSpec `json:"specs,omitempty"`
	Replicas int                    `json:"replicas,omitempty"`
	Workers  int                    `json:"workers,omitempty"`
	Until    float64                `json:"until"`
	Every    float64                `json:"every"`
	NoCache  bool                   `json:"nocache,omitempty"`
	// MaxDuration is the job's wall-clock run budget in Go duration
	// syntax ("90s", "15m"); past it the job ends in the
	// deadline_exceeded state. Empty defers to the server's
	// -max-job-duration default; a server default also caps any value
	// given here.
	MaxDuration string `json:"max_duration,omitempty"`
}

// VariantResult is one variant's merged series in a ResultResponse —
// the store's serialized result form, served verbatim.
type VariantResult = store.Variant

// ResultResponse is the GET /jobs/{id}/result body.
type ResultResponse struct {
	ID string `json:"id"`
	// Cached marks a result served from the content-addressed cache
	// instead of a run in this process.
	Cached   bool            `json:"cached,omitempty"`
	Variants []VariantResult `json:"variants"`
}

// EventFrame is one SSE frame of GET /jobs/{id}/events: the job status
// plus each replica's simulated-time frontier from the atomic progress
// slots.
type EventFrame struct {
	Status
	// ReplicaTimes is each replica's latest simulated time, indexed
	// (variant × replicas + replica). Zero for replicas not yet
	// observed at any grid point.
	ReplicaTimes []float64 `json:"replicaTimes,omitempty"`
}

// NewServer wraps a manager in the HTTP API.
func NewServer(mgr *Manager) *Server {
	s := &Server{
		mgr:               mgr,
		mux:               http.NewServeMux(),
		version:           "dev",
		eventInterval:     250 * time.Millisecond,
		heartbeatInterval: 15 * time.Second,
		writeTimeout:      10 * time.Second,
	}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /version", s.handleVersion)
	return s
}

// SetVersion sets the stamp GET /version reports (default "dev").
func (s *Server) SetVersion(v string) { s.version = v }

// ServeHTTP implements http.Handler. Every request runs under the
// panic-recovery middleware: job panics are already contained in the
// ensemble workers, so this is the last line for handler bugs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	Recoverer(s.mux).ServeHTTP(w, r)
}

// reqID numbers recovered-panic responses so a client-reported 500 can
// be matched to the server-side stack in the log.
var reqID atomic.Uint64

// Recoverer is the HTTP panic-containment middleware: a panicking
// handler yields a 500 JSON body carrying a request id (also echoed in
// X-Request-Id) instead of tearing down the connection with a blank
// response, and the panic with its id and stack goes to stderr so the
// client-reported id finds the server-side trace. http.ErrAbortHandler
// re-panics untouched — it is net/http's sanctioned way to abort a
// response, not a bug.
func Recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if err, ok := v.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(v)
			}
			id := fmt.Sprintf("req-%d", reqID.Add(1))
			fmt.Fprintf(os.Stderr, "surfd: %s: panic serving %s %s: %v\n%s",
				id, r.Method, r.URL.Path, v, debug.Stack())
			// Best-effort 500: if the handler already wrote its status,
			// nothing better than an appended body is possible
			// mid-response.
			w.Header().Set("X-Request-Id", id)
			httpError(w, http.StatusInternalServerError,
				fmt.Errorf("internal error (request %s)", id))
		}()
		next.ServeHTTP(w, r)
	})
}

// httpError writes a JSON error body.
func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeJSON writes a JSON success body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	var req SubmitRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var specs []*parsurf.SessionSpec
	switch {
	case req.Spec != nil && len(req.Specs) > 0:
		httpError(w, http.StatusBadRequest, fmt.Errorf(`body has both "spec" and "specs"; pick one`))
		return
	case req.Spec != nil:
		specs = []*parsurf.SessionSpec{req.Spec}
	case len(req.Specs) > 0:
		specs = req.Specs
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf(`body needs a "spec" (or "specs") section`))
		return
	}
	var maxDur time.Duration
	if req.MaxDuration != "" {
		d, err := time.ParseDuration(req.MaxDuration)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("max_duration: %w", err))
			return
		}
		maxDur = d
	}
	j, err := s.mgr.Submit(Request{
		Specs:       specs,
		Replicas:    req.Replicas,
		Workers:     req.Workers,
		Until:       req.Until,
		Every:       req.Every,
		NoCache:     req.NoCache,
		MaxDuration: maxDur,
	})
	if err != nil {
		// Transient capacity exhaustion is load shedding, not a client
		// mistake: 429 with a retry hint. Everything else Submit
		// rejects is permanently malformed for this server — 400.
		if errors.Is(err, ErrOverloaded) {
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, err)
			return
		}
		httpError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleList serves the job listing in submission order. Query
// parameters page and filter it:
//
//	?state=running      keep only jobs in that lifecycle state
//	?after=job-12       start strictly after the given id
//	?limit=50           cap the page size (must be > 0)
//
// Filtering applies before pagination, so ?state=done&after=X&limit=N
// walks the done jobs N at a time: pass the last id of one page as the
// next page's "after". An unknown "after" id (or one filtered out)
// yields an empty page rather than an error — the job may have been
// submitted against a previous process.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var limit int
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("limit %q is not a positive integer", v))
			return
		}
		limit = n
	}
	state := State(q.Get("state"))
	switch state {
	case "", StateQueued, StateRunning, StateDone, StateFailed, StateCancelled,
		StateQuarantined, StateDeadlineExceeded:
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("unknown state %q", state))
		return
	}
	after := q.Get("after")
	skipping := after != ""
	out := []Status{}
	for _, j := range s.mgr.Jobs() {
		st := j.Status()
		if state != "" && st.State != state {
			continue
		}
		if skipping {
			if st.ID == after {
				skipping = false
			}
			continue
		}
		out = append(out, st)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"version": s.version})
}

// lookup resolves the {id} path value.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.mgr.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", id))
		return nil, false
	}
	return j, true
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		writeJSON(w, http.StatusOK, j.Status())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookup(w, r); ok {
		j.Cancel()
		writeJSON(w, http.StatusOK, j.Status())
	}
}

// shardFP fingerprints a shard listing: frames whose fingerprint
// differs from the previous frame's are sent as "event: shard" so fleet
// clients can watch lease churn without diffing statuses themselves.
func shardFP(shards []ShardStatus) string {
	if len(shards) == 0 {
		return ""
	}
	var b strings.Builder
	for _, sh := range shards {
		fmt.Fprintf(&b, "%s=%s/%s/%d;", sh.ID, sh.State, sh.Worker, sh.Requeues)
	}
	return b.String()
}

// handleEvents streams SSE progress frames — "event: progress" while
// the job advances, "event: shard" when the fleet shard table changed
// since the previous frame, one final "event: done" carrying the
// terminal status — so clients follow a job without polling. Between frames the
// stream carries periodic ": heartbeat" comment lines so idle
// connections stay alive through proxies, and every write runs under a
// per-write deadline so a peer that stops reading is disconnected
// instead of parking the handler goroutine. The stream ends at the
// terminal frame, on a stalled peer, or when the client hangs up.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusNotImplemented, fmt.Errorf("response writer cannot stream"))
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream; charset=utf-8")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not buffer the stream
	w.WriteHeader(http.StatusOK)

	// arm bounds the next write. Not every ResponseWriter supports
	// deadlines (httptest recorders don't); those stream without one.
	rc := http.NewResponseController(w)
	// An SSE stream outlives any server-level ReadTimeout; clear the
	// connection's read deadline so the background close-detection read
	// cannot expire it and kill a healthy stream mid-job. Writes stay
	// bounded by the per-write deadline below.
	rc.SetReadDeadline(time.Time{})
	arm := func() {
		if s.writeTimeout > 0 {
			rc.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
	}
	var lastShards string
	send := func(event string) bool {
		frame := EventFrame{Status: j.Status(), ReplicaTimes: j.ReplicaTimes()}
		if fp := shardFP(frame.Shards); fp != lastShards {
			lastShards = fp
			if event == "progress" {
				event = "shard"
			}
		}
		data, err := json.Marshal(frame)
		if err != nil {
			return false
		}
		arm()
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	heartbeat := func() bool {
		arm()
		if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	select {
	case <-j.Done():
		// Already terminal: one done frame and out.
		send("done")
		return
	default:
	}
	if !send("progress") {
		return
	}
	ticker := time.NewTicker(s.eventInterval)
	defer ticker.Stop()
	pulse := time.NewTicker(s.heartbeatInterval)
	defer pulse.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-j.Done():
			send("done")
			return
		case <-ticker.C:
			if !send("progress") {
				return
			}
		case <-pulse.C:
			if !heartbeat() {
				return
			}
		}
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	res, err := j.ResultData()
	if err != nil {
		// Not finished, cancelled, or failed: the request conflicts
		// with the job's state — 409, never a 500.
		httpError(w, http.StatusConflict, err)
		return
	}
	if r.URL.Query().Get("format") == "csv" {
		s.writeCSV(w, r, j, res)
		return
	}
	writeJSON(w, http.StatusOK, ResultResponse{ID: j.ID(), Cached: j.Cached(), Variants: res.Variants})
}

// writeCSV streams one variant's mean series in the same CSV shape
// surfsim prints (t column plus one column per species), row by row —
// chunked transfer, never a full body in memory.
func (s *Server) writeCSV(w http.ResponseWriter, r *http.Request, j *Job, res *store.Result) {
	variant := 0
	if v := r.URL.Query().Get("variant"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 || n >= len(res.Variants) {
			httpError(w, http.StatusBadRequest, fmt.Errorf("variant %q outside [0, %d)", v, len(res.Variants)))
			return
		}
		variant = n
	}
	vr := res.Variants[variant]
	w.Header().Set("Content-Type", "text/csv; charset=utf-8")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", fmt.Sprintf("%s-v%d.csv", j.ID(), variant)))
	flusher, _ := w.(http.Flusher)
	// A mid-stream failure (client hung up) cannot be reported to the
	// client anymore — the 200 status and partial CSV are already on
	// the wire — so write errors end the stream silently rather than
	// appending a JSON fragment to a corrupt payload.
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprint(bw, "t"); err != nil {
		return
	}
	for _, sp := range vr.Species {
		fmt.Fprintf(bw, ",%s", sp)
	}
	fmt.Fprintln(bw)
	const flushEvery = 256
	for k := range vr.T {
		fmt.Fprintf(bw, "%g", vr.T[k])
		for sp := range vr.Mean {
			fmt.Fprintf(bw, ",%g", vr.Mean[sp][k])
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return
		}
		if (k+1)%flushEvery == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	bw.Flush()
}
