package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync/atomic"
	"time"

	"parsurf"
	"parsurf/internal/backoff"
	"parsurf/internal/job"
	"parsurf/internal/store"
)

// defaultClient is the worker's fallback HTTP client. Unlike
// http.DefaultClient it carries a timeout, so a wedged coordinator (or
// a black-holed connection) surfaces as a retryable error instead of
// parking the lease loop forever. Generous on purpose: the slowest
// call is a shard-result upload, which may move real data.
var defaultClient = &http.Client{Timeout: 2 * time.Minute}

// Worker is a fleet worker node: a lease → run → upload loop against a
// coordinator. Each leased shard runs through the same pooled
// zero-rebuild replica path a local surfd uses (parsurf.RunReplicaRange
// with absolute replica indices), so the rows it uploads are the exact
// rows a single-node run computes. A worker given a local store
// snapshots its running replicas mid-shard and resumes them after a
// restart through the same snapshot implementation as the single-node
// manager (job.ReplicaSnapshots).
type Worker struct {
	// ID names the worker in leases and heartbeats.
	ID string
	// Coordinator is the coordinator's base URL ("http://host:8080").
	Coordinator string
	// Workers is the replica-goroutine count per shard (min 1).
	Workers int
	// Poll is the base of the jittered retry backoff while the
	// coordinator is unreachable (default 500ms). An idle worker does
	// not poll: after a 204 it sends waiting leases, which park at the
	// coordinator until a shard queues. Poll is also the floor between
	// waiting leases that come back empty, so a coordinator that
	// ignores "wait" is asked at most once per Poll.
	Poll time.Duration
	// Store, when set, holds mid-shard replica checkpoints keyed by
	// (job hash, shard), written at most every CheckpointEvery.
	Store store.Store
	// CheckpointEvery rate-limits mid-shard snapshots (0 disables new
	// ones; a Store's existing snapshots still resume).
	CheckpointEvery time.Duration
	// Client is the HTTP client (default: a shared client with a
	// 2-minute timeout — never the timeout-less http.DefaultClient).
	Client *http.Client
	// Logf, when set, receives worker progress lines.
	Logf func(format string, args ...any)
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return defaultClient
}

func (w *Worker) poll() time.Duration {
	if w.Poll > 0 {
		return w.Poll
	}
	return 500 * time.Millisecond
}

// retryPolicy is the worker's shared jittered-backoff schedule,
// growing from its poll interval to max: decorrelated, so a fleet
// retrying against one restarting coordinator trickles back instead of
// arriving as a synchronized thundering herd.
func (w *Worker) retryPolicy(max time.Duration) backoff.Policy {
	return backoff.Policy{Base: w.poll(), Max: max, Jitter: true}
}

// Run leases and executes shards until ctx is cancelled. Errors inside
// a shard are reported to the coordinator and the loop continues; only
// cancellation ends it. Once told the queue is empty, the worker's next
// lease waits at the coordinator for work instead of sleeping, so a
// newly queued shard starts at once. An unreachable coordinator
// degrades the loop to jittered exponential-backoff polling (reset by
// the next successful lease call), so workers ride out coordinator
// restarts.
func (w *Worker) Run(ctx context.Context) error {
	if w.ID == "" || w.Coordinator == "" {
		return fmt.Errorf("fleet: worker needs an ID and a coordinator URL")
	}
	if w.Workers < 1 {
		w.Workers = 1
	}
	retry := w.retryPolicy(30 * time.Second)
	fails := 0
	// wait is set only after a 204: the first call (and the first after
	// a shard or an error) answers at once.
	wait := false
	for {
		if err := ctx.Err(); err != nil {
			return nil
		}
		start := time.Now()
		grant, ok, err := w.lease(ctx, wait)
		switch {
		case err != nil:
			if ctx.Err() != nil {
				return nil
			}
			w.logf("worker %s: lease: %v", w.ID, err)
			wait = false
			if !retry.Sleep(fails, ctx.Done()) {
				return nil
			}
			fails++
		case !ok:
			fails = 0
			// A waiting lease normally comes back empty only at the
			// coordinator's bound. Sooner than Poll means it did not park
			// (an older coordinator ignores "wait"): sleep out the rest of
			// Poll rather than spin.
			if rest := w.poll() - time.Since(start); wait && rest > 0 {
				select {
				case <-ctx.Done():
					return nil
				case <-time.After(rest):
				}
			}
			wait = true
		default:
			fails = 0
			wait = false
			w.runShard(ctx, grant)
		}
	}
}

// lease asks the coordinator for one shard; with wait the coordinator
// may hold the call until a shard queues.
func (w *Worker) lease(ctx context.Context, wait bool) (*Grant, bool, error) {
	body, _ := json.Marshal(leaseRequest{Worker: w.ID, Wait: wait})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.Coordinator+"/fleet/lease", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, false, nil
	case http.StatusOK:
		grant := new(Grant)
		if err := json.NewDecoder(resp.Body).Decode(grant); err != nil {
			return nil, false, err
		}
		return grant, true, nil
	default:
		return nil, false, fmt.Errorf("fleet: lease: coordinator answered %s", resp.Status)
	}
}

// post sends a JSON body and discards the response body, returning the
// status code.
func (w *Worker) post(ctx context.Context, path string, v any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// ckptKey derives the worker-local checkpoint key of a shard: job hash
// prefix plus the global shard id, so resumable state is scoped to
// exactly one (job, shard) and DeleteCheckpoints after upload removes
// exactly that.
func ckptKey(grant *Grant) string {
	if grant.Hash == "" || grant.Shard == "" {
		return ""
	}
	h := grant.Hash
	if len(h) > 12 {
		h = h[:12]
	}
	// The global id's dot is a valid store key character, so the key
	// needs no escaping.
	return h + "-" + grant.Shard
}

// runShard executes one leased shard: heartbeats inside the TTL while
// the replicas run, uploads the wire payload on success, reports the
// failure otherwise. A 410 from any call abandons the shard (the
// coordinator moved on); worker-local checkpoints survive an abandon —
// a future lease of the same shard resumes from them.
func (w *Worker) runShard(ctx context.Context, grant *Grant) {
	spec, err := parsurf.ParseSpec(grant.Spec)
	if err != nil {
		w.fail(ctx, grant, fmt.Sprintf("parsing spec: %v", err))
		return
	}
	n := grant.Hi - grant.Lo
	if n <= 0 {
		w.fail(ctx, grant, fmt.Sprintf("empty replica range [%d, %d)", grant.Lo, grant.Hi))
		return
	}
	grid, err := parsurf.NewTimeGrid(grant.Until, grant.Every)
	if err != nil {
		w.fail(ctx, grant, fmt.Sprintf("grid: %v", err))
		return
	}

	// Per-replica progress slots, written by the replica goroutines at
	// grid points and drained by the heartbeat loop.
	steps := make([]atomic.Uint64, n)
	times := make([]atomic.Uint64, n) // Float64bits
	shardCtx, cancelShard := context.WithCancel(ctx)
	defer cancelShard()

	hbDone := make(chan struct{})
	go w.heartbeats(shardCtx, cancelShard, grant, steps, times, hbDone)

	publish := func(k int, eng parsurf.Engine) {
		steps[k].Store(eng.Steps())
		times[k].Store(math.Float64bits(eng.Time()))
	}
	// Snapshot slots are shard-relative replica indices under the
	// shard's key, so a later lease of the same shard finds them.
	key := ckptKey(grant)
	slot := func(variant, replica int) int {
		if variant != grant.Variant || replica < grant.Lo || replica >= grant.Hi {
			return -1
		}
		return replica - grant.Lo
	}
	opts := []parsurf.EnsembleOption{
		parsurf.ObserveReplicas(func(variant, replica int, t float64, sess *parsurf.Session) {
			publish(replica-grant.Lo, sess.Engine())
		}),
		job.ReplicaSnapshots(w.Store, key, w.CheckpointEvery, n, slot,
			func(int) *parsurf.SessionSpec { return spec }, grid.Len(),
			func(k, nextK int, sess *parsurf.Session) {
				publish(k, sess.Engine())
				w.logf("worker %s: resuming replica %d of %s at grid point %d", w.ID, grant.Lo+k, grant.Shard, nextK)
			}),
	}

	w.logf("worker %s: running %s (variant %d replicas [%d, %d))",
		w.ID, grant.Shard, grant.Variant, grant.Lo, grant.Hi)
	rows, err := parsurf.RunReplicaRange(shardCtx, spec, grant.Variant, grant.Lo, grant.Hi,
		w.Workers, grant.Until, grant.Every, opts...)
	cancelShard()
	<-hbDone
	if err != nil {
		if ctx.Err() != nil || shardCtx.Err() != nil {
			// Shutdown or lost lease: abandon quietly, keeping local
			// checkpoints for a future lease of this shard.
			w.logf("worker %s: abandoning %s: %v", w.ID, grant.Shard, err)
			return
		}
		w.fail(ctx, grant, err.Error())
		return
	}

	res := &ShardResult{
		Variant:  grant.Variant,
		Lo:       grant.Lo,
		Hi:       grant.Hi,
		SpecHash: spec.Hash(),
		Rows:     rows,
		Steps:    make([]uint64, n),
		Times:    make([]float64, n),
	}
	for k := 0; k < n; k++ {
		res.Steps[k] = steps[k].Load()
		res.Times[k] = math.Float64frombits(times[k].Load())
	}
	data, err := encodeShardResult(res)
	if err != nil {
		w.fail(ctx, grant, fmt.Sprintf("encoding result: %v", err))
		return
	}
	if w.upload(ctx, grant, data) && w.Store != nil && key != "" {
		_ = w.Store.DeleteCheckpoints(key)
	}
}

// heartbeats renews the lease every third of its TTL, carrying the
// replicas' progress counters. A 410 cancels the shard run — the
// coordinator gave the shard to someone else (or finished the job).
func (w *Worker) heartbeats(ctx context.Context, cancel context.CancelFunc, grant *Grant,
	steps, times []atomic.Uint64, done chan<- struct{}) {
	defer close(done)
	interval := time.Duration(grant.LeaseMillis) * time.Millisecond / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		hb := heartbeatRequest{Worker: w.ID, Replicas: make([]ReplicaProgress, len(steps))}
		for k := range steps {
			hb.Replicas[k] = ReplicaProgress{
				Replica: grant.Lo + k,
				Steps:   steps[k].Load(),
				Time:    math.Float64frombits(times[k].Load()),
			}
		}
		// A transient send failure gets a couple of quick jittered
		// retries inside this tick — a blip should not cost a whole
		// renewal interval of lease budget. Still unreachable after
		// that: keep running — the lease may expire, in which case a
		// later heartbeat gets the 410.
		hbRetry := w.retryPolicy(interval / 2)
		var code int
		var err error
		for attempt := 0; attempt < 3; attempt++ {
			if code, err = w.post(ctx, "/fleet/shards/"+grant.Shard+"/heartbeat", hb); err == nil {
				break
			}
			if !hbRetry.Sleep(attempt, ctx.Done()) {
				return
			}
		}
		if err != nil {
			continue
		}
		if code == http.StatusGone {
			w.logf("worker %s: lease on %s gone", w.ID, grant.Shard)
			cancel()
			return
		}
	}
}

// upload posts the shard payload, retrying transient failures a few
// times under the shared jittered backoff. True means the coordinator
// accepted (or already had) the result.
func (w *Worker) upload(ctx context.Context, grant *Grant, data []byte) bool {
	url := w.Coordinator + "/fleet/shards/" + grant.Shard + "/result?worker=" + w.ID
	retry := w.retryPolicy(5 * time.Second)
	for attempt := 0; attempt < 3; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
		if err != nil {
			return false
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := w.client().Do(req)
		if err != nil {
			if !retry.Sleep(attempt, ctx.Done()) {
				return false
			}
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			w.logf("worker %s: delivered %s", w.ID, grant.Shard)
			return true
		case http.StatusGone:
			w.logf("worker %s: result for %s refused: job gone", w.ID, grant.Shard)
			return false
		default:
			w.logf("worker %s: result for %s rejected: %s %s", w.ID, grant.Shard, resp.Status, body)
			return false
		}
	}
	return false
}

// fail reports a shard failure to the coordinator (best-effort).
func (w *Worker) fail(ctx context.Context, grant *Grant, reason string) {
	w.logf("worker %s: shard %s failed: %s", w.ID, grant.Shard, reason)
	_, _ = w.post(ctx, "/fleet/shards/"+grant.Shard+"/fail", failRequest{Worker: w.ID, Error: reason})
}
