package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"

	"parsurf/internal/fleet"
	"parsurf/internal/store"
)

// The taps time calls into each layer's public API from outside: a
// store.Store decorator, HTTP middleware around the job and fleet
// handlers, and http.RoundTrippers on the load client and on every fleet
// worker. Nothing inside the program is instrumented.

// tappedStore records a span around every store call a reported metric
// covers; the remaining methods pass through untimed.
type tappedStore struct {
	store.Store
	tr  *tracer
	tag string
}

func (s *tappedStore) add(name string, t0, t1 int64, sp span, payload any) {
	sp.Name, sp.Layer, sp.Depth, sp.Start, sp.End, sp.Tag = name, "store", depthStore, t0, t1, s.tag
	switch p := payload.(type) {
	case nil:
	case []byte:
		sp.Attrs = map[string]int64{"bytes": int64(len(p))}
	default:
		// The store encodes records and results as JSON; their size is
		// the size of that encoding.
		if b, err := json.Marshal(p); err == nil {
			sp.Attrs = map[string]int64{"bytes": int64(len(b))}
		}
	}
	s.tr.add(sp)
}

func (s *tappedStore) PutJob(rec *store.JobRecord) error {
	t0 := s.tr.now()
	err := s.Store.PutJob(rec)
	t1 := s.tr.now()
	s.tr.noteHash(rec.ID, rec.Hash)
	s.add("put_job", t0, t1, span{Job: rec.ID, State: rec.State}, rec)
	return err
}

func (s *tappedStore) PutResult(hash string, res *store.Result) error {
	t0 := s.tr.now()
	err := s.Store.PutResult(hash, res)
	s.add("put_result", t0, s.tr.now(), span{Hash: hash}, res)
	return err
}

func (s *tappedStore) GetResult(hash string) (*store.Result, error) {
	t0 := s.tr.now()
	res, err := s.Store.GetResult(hash)
	s.add("get_result", t0, s.tr.now(), span{Hash: hash}, nil)
	return res, err
}

func (s *tappedStore) PutCheckpoint(hash, slot string, data []byte) error {
	t0 := s.tr.now()
	err := s.Store.PutCheckpoint(hash, slot, data)
	s.add("put_checkpoint", t0, s.tr.now(), span{Hash: hash}, data)
	return err
}

func (s *tappedStore) DeleteCheckpoints(hash string) error {
	t0 := s.tr.now()
	err := s.Store.DeleteCheckpoints(hash)
	s.add("delete_checkpoints", t0, s.tr.now(), span{Hash: hash}, nil)
	return err
}

func (s *tappedStore) PutShard(rec *store.ShardRecord) error {
	t0 := s.tr.now()
	err := s.Store.PutShard(rec)
	t1 := s.tr.now()
	s.add("put_shard", t0, t1, span{Job: rec.JobID, Shard: rec.ID, State: rec.State}, rec)
	return err
}

func (s *tappedStore) PutShardResult(jobID, shardID string, data []byte) error {
	t0 := s.tr.now()
	err := s.Store.PutShardResult(jobID, shardID, data)
	s.add("put_shard_result", t0, s.tr.now(), span{Job: jobID, Shard: shardID}, data)
	return err
}

func (s *tappedStore) GetShardResult(jobID, shardID string) ([]byte, error) {
	t0 := s.tr.now()
	data, err := s.Store.GetShardResult(jobID, shardID)
	s.add("get_shard_result", t0, s.tr.now(), span{Job: jobID, Shard: shardID}, nil)
	return data, err
}

func (s *tappedStore) DeleteShards(jobID string) error {
	t0 := s.tr.now()
	err := s.Store.DeleteShards(jobID)
	s.add("delete_shards", t0, s.tr.now(), span{Job: jobID}, nil)
	return err
}

// opHeader carries the load client's operation id to the server tap, so
// server spans join the operation that caused them.
const opHeader = "X-Perfbench-Op"

type opKey struct{}

// route names a request by its route pattern, ids elided.
func route(method, path, query string) string {
	seg := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(seg) >= 2 && seg[0] == "jobs":
		seg[1] = "{id}"
	case len(seg) >= 3 && seg[0] == "fleet" && seg[1] == "shards":
		seg[2] = "{id}"
	}
	name := method + " /" + strings.Join(seg, "/")
	if strings.Contains(query, "format=csv") {
		name += "?csv"
	}
	return name
}

// pathJob extracts the job (and fleet shard) a request path names.
func pathJob(path string) (jobID, shardID string) {
	seg := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(seg) >= 2 && seg[0] == "jobs":
		return seg[1], ""
	case len(seg) >= 3 && seg[0] == "fleet" && seg[1] == "shards":
		j, s, err := fleet.SplitShardID(seg[2])
		if err == nil {
			return j, s
		}
	}
	return "", ""
}

// serverTap is HTTP middleware recording one span per handled request
// with its status, response bytes and SSE frames.
type serverTap struct {
	next  http.Handler
	tr    *tracer
	layer string
	depth int
}

func (h *serverTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t0 := h.tr.now()
	rec := &recorder{ResponseWriter: w, status: http.StatusOK}
	h.next.ServeHTTP(rec, r)
	sp := span{Name: route(r.Method, r.URL.Path, r.URL.RawQuery), Layer: h.layer, Depth: h.depth,
		Start: t0, End: h.tr.now(), Op: r.Header.Get(opHeader),
		Attrs: map[string]int64{"status": int64(rec.status), "bytes": rec.bytes, "frames": rec.frames}}
	sp.Job, sp.Shard = pathJob(r.URL.Path)
	h.tr.add(sp)
}

// recorder is the server tap's ResponseWriter. It keeps the wrapped
// writer's streaming (Flush) and deadline control (Unwrap) working.
type recorder struct {
	http.ResponseWriter
	status int
	bytes  int64
	frames int64
}

func (r *recorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte("event: ")) {
		r.frames++
	}
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

func (r *recorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *recorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// clientTap is the load client's RoundTripper: a span per call from
// sending the request to the end of the response body, tagged with the
// operation id the request's context carries.
type clientTap struct {
	base http.RoundTripper
	tr   *tracer
}

func (c *clientTap) RoundTrip(req *http.Request) (*http.Response, error) {
	op, _ := req.Context().Value(opKey{}).(string)
	req = req.Clone(req.Context())
	req.Header.Set(opHeader, op)
	sp := span{Name: route(req.Method, req.URL.Path, req.URL.RawQuery), Layer: "http", Depth: depthClient,
		Start: c.tr.now(), Op: op}
	sp.Job, _ = pathJob(req.URL.Path)
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		sp.End = c.tr.now()
		c.tr.add(sp)
		return nil, err
	}
	status := int64(resp.StatusCode)
	resp.Body = &bodyTap{ReadCloser: resp.Body, done: func(n int64) {
		sp.End = c.tr.now()
		sp.Attrs = map[string]int64{"status": status, "bytes": n}
		c.tr.add(sp)
	}}
	return resp, nil
}

// bodyTap counts a response body and reports once, at EOF or Close,
// whichever comes first.
type bodyTap struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *bodyTap) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *bodyTap) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// workerTap is a fleet worker's RoundTripper. Untraced it only reports
// the worker's first lease call, which ends the fleet set-up; traced it
// records every lease, heartbeat and result call, and the shard compute
// between a grant and its result upload.
type workerTap struct {
	base      http.RoundTripper
	tr        *tracer // nil: untraced
	tag       string
	firstOnce sync.Once
	first     chan struct{}

	// grant is the shard this worker runs, set from the lease response;
	// the worker leases its next shard only after uploading this one.
	mu      sync.Mutex
	grant   fleet.Grant
	granted int64
}

func (w *workerTap) RoundTrip(req *http.Request) (*http.Response, error) {
	isLease := strings.HasSuffix(req.URL.Path, "/fleet/lease")
	if w.tr == nil {
		resp, err := w.base.RoundTrip(req)
		if isLease {
			w.firstOnce.Do(func() { close(w.first) })
		}
		return resp, err
	}
	sp := span{Name: route(req.Method, req.URL.Path, ""), Layer: "fleet", Depth: depthShard,
		Start: w.tr.now(), Tag: w.tag, Attrs: map[string]int64{}}
	sp.Job, sp.Shard = pathJob(req.URL.Path)
	if strings.HasSuffix(req.URL.Path, "/result") {
		w.mu.Lock()
		g, granted := w.grant, w.granted
		w.mu.Unlock()
		w.tr.add(span{Name: "shard", Layer: "engine", Depth: depthShard, Start: granted, End: sp.Start,
			Job: g.Job, Shard: g.Shard, Tag: w.tag, Attrs: map[string]int64{"replicas": int64(g.Hi - g.Lo)}})
		sp.Attrs["bytes"] = req.ContentLength
		sp.Attrs["replicas"] = int64(g.Hi - g.Lo)
	}
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		sp.End = w.tr.now()
		w.tr.add(sp)
		return nil, err
	}
	sp.Attrs["status"] = int64(resp.StatusCode)
	if isLease {
		defer w.firstOnce.Do(func() { close(w.first) })
		if resp.StatusCode == http.StatusOK {
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				return nil, err
			}
			resp.Body = io.NopCloser(bytes.NewReader(body))
			var g fleet.Grant
			if json.Unmarshal(body, &g) == nil {
				sp.Job, sp.Shard = g.Job, g.Shard
				w.mu.Lock()
				w.grant, w.granted = g, w.tr.now()
				w.mu.Unlock()
			}
		}
	}
	sp.End = w.tr.now()
	w.tr.add(sp)
	return resp, nil
}

// withOp tags ctx with a load-client operation id.
func withOp(ctx context.Context, op string) context.Context {
	return context.WithValue(ctx, opKey{}, op)
}
