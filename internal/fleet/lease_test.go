package fleet

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"parsurf"
	"parsurf/internal/job"
	"parsurf/internal/store"
)

// leaseAnswer is what one Lease call returned and when.
type leaseAnswer struct {
	grant *Grant
	ok    bool
	took  time.Duration
}

// parkLease starts a waiting Lease and checks it is still parked a
// moment later, so the event the caller triggers next is what wakes it.
func parkLease(t *testing.T, ctx context.Context, c *Coordinator, worker string, wait time.Duration) <-chan leaseAnswer {
	t.Helper()
	out := make(chan leaseAnswer, 1)
	go func() {
		start := time.Now()
		g, ok := c.Lease(ctx, worker, wait)
		out <- leaseAnswer{g, ok, time.Since(start)}
	}()
	select {
	case a := <-out:
		t.Fatalf("lease for %s answered before any event (ok=%v after %v)", worker, a.ok, a.took)
	case <-time.After(50 * time.Millisecond):
	}
	return out
}

// awaitLease returns a parked lease's answer, failing after d.
func awaitLease(t *testing.T, out <-chan leaseAnswer, d time.Duration) leaseAnswer {
	t.Helper()
	select {
	case a := <-out:
		return a
	case <-time.After(d):
		t.Fatalf("parked lease still waiting after %v", d)
		return leaseAnswer{}
	}
}

// oneVariantReq is a single-variant job of the given replica count.
func oneVariantReq(t *testing.T, replicas int) job.Request {
	t.Helper()
	return job.Request{
		Specs:    []*parsurf.SessionSpec{ziffSpec(t, 0.51, 42)},
		Replicas: replicas,
		Workers:  1,
		Until:    5,
		Every:    1,
	}
}

// A parked lease is granted the first shard of a job that opens while
// it waits.
func TestWaitingLeaseWakesOnNewJob(t *testing.T) {
	st := store.NewMem()
	coord, err := New(st, ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()

	parked := parkLease(t, context.Background(), coord, "w1", 10*time.Second)
	j, err := m.Submit(oneVariantReq(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	a := awaitLease(t, parked, 5*time.Second)
	if !a.ok || a.grant.Job != j.ID() {
		t.Fatalf("parked lease: ok=%v grant=%+v, want a shard of %s", a.ok, a.grant, j.ID())
	}
}

// A parked lease is granted a shard that a worker's failure re-queued.
func TestWaitingLeaseWakesOnFailRequeue(t *testing.T) {
	st := store.NewMem()
	coord, err := New(st, ShardSize(2))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()
	if _, err := m.Submit(oneVariantReq(t, 2)); err != nil {
		t.Fatal(err)
	}
	first := waitLease(t, coord, "w1", 5*time.Second)

	parked := parkLease(t, context.Background(), coord, "w2", 10*time.Second)
	jobID, shardID, err := SplitShardID(first.Shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Fail(jobID, shardID, "w1", "injected"); err != nil {
		t.Fatal(err)
	}
	a := awaitLease(t, parked, 5*time.Second)
	if !a.ok || a.grant.Shard != first.Shard {
		t.Fatalf("parked lease: ok=%v grant=%+v, want the re-queued %s", a.ok, a.grant, first.Shard)
	}
}

// A parked lease is granted a shard whose lease expired.
func TestWaitingLeaseWakesOnExpiryRequeue(t *testing.T) {
	st := store.NewMem()
	coord, err := New(st, ShardSize(2), LeaseTTL(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()
	if _, err := m.Submit(oneVariantReq(t, 2)); err != nil {
		t.Fatal(err)
	}
	first := waitLease(t, coord, "w-silent", 5*time.Second)

	parked := parkLease(t, context.Background(), coord, "w2", 10*time.Second)
	a := awaitLease(t, parked, 5*time.Second)
	if !a.ok || a.grant.Shard != first.Shard {
		t.Fatalf("parked lease: ok=%v grant=%+v, want the expired %s", a.ok, a.grant, first.Shard)
	}
	if n := coord.Counters().Expiries; n < 1 {
		t.Errorf("Expiries %d, want >= 1", n)
	}
}

// A parked lease on an empty queue gives up at its bound, on context
// cancel and on Close — each promptly.
func TestWaitingLeaseGivesUp(t *testing.T) {
	coord, err := New(store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	a := awaitLease(t, parkLease(t, context.Background(), coord, "w1", 200*time.Millisecond), 5*time.Second)
	if a.ok {
		t.Fatalf("bound: granted %+v from an empty queue", a.grant)
	}
	if a.took < 200*time.Millisecond {
		t.Errorf("bound: answered after %v, before the 200ms bound", a.took)
	}

	ctx, cancel := context.WithCancel(context.Background())
	parked := parkLease(t, ctx, coord, "w1", time.Minute)
	cancel()
	if a := awaitLease(t, parked, 2*time.Second); a.ok {
		t.Fatalf("cancel: granted %+v", a.grant)
	}

	parked = parkLease(t, context.Background(), coord, "w1", time.Minute)
	coord.Close()
	if a := awaitLease(t, parked, 2*time.Second); a.ok {
		t.Fatalf("close: granted %+v", a.grant)
	}
	// Close is idempotent, and a closed coordinator no longer parks.
	coord.Close()
	start := time.Now()
	if _, ok := coord.Lease(context.Background(), "w1", time.Minute); ok {
		t.Fatal("closed coordinator granted a lease from an empty queue")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("waiting lease on a closed coordinator took %v", d)
	}
}

// A lease without "wait" answers an empty queue at once with 204.
func TestLeaseWithoutWaitAnswersAtOnce(t *testing.T) {
	coord, err := New(store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()

	start := time.Now()
	resp, err := http.Post(srv.URL+"/fleet/lease", "application/json", strings.NewReader(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status %d, want 204", resp.StatusCode)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("lease without wait took %v on an empty queue", d)
	}
}

// N parked leases and a job of N shards: every waiter gets exactly one
// distinct shard, none stays parked, and the next waiter finds nothing.
func TestWaitingLeasesShareQueuedShards(t *testing.T) {
	const n = 4
	st := store.NewMem()
	coord, err := New(st, ShardSize(1))
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	m := fleetManager(t, st, coord, 1)
	defer m.Close()

	var waiters []<-chan leaseAnswer
	for i := 0; i < n; i++ {
		waiters = append(waiters, parkLease(t, context.Background(), coord, "w", 10*time.Second))
	}
	if _, err := m.Submit(oneVariantReq(t, n)); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, w := range waiters {
		a := awaitLease(t, w, 5*time.Second)
		if !a.ok {
			t.Fatalf("waiter %d got no shard", i)
		}
		if seen[a.grant.Shard] {
			t.Fatalf("shard %s granted twice", a.grant.Shard)
		}
		seen[a.grant.Shard] = true
	}
	if got := coord.Counters().Leases; got != n {
		t.Errorf("Leases %d, want %d", got, n)
	}
	if a := awaitLease(t, parkLease(t, context.Background(), coord, "w", 100*time.Millisecond), 5*time.Second); a.ok {
		t.Fatalf("extra waiter granted %+v with every shard leased", a.grant)
	}
}

// Against a coordinator that ignores "wait" and always answers 204, a
// worker does not spin: it asks at most about once per Poll, and it
// sets "wait" on every call after the first 204.
func TestWorkerFallbackAgainstNonWaitingCoordinator(t *testing.T) {
	var (
		mu    sync.Mutex
		waits []bool
	)
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if r.URL.Path != "/fleet/lease" || json.NewDecoder(r.Body).Decode(&req) != nil {
			http.Error(w, "unexpected call", http.StatusBadRequest)
			return
		}
		mu.Lock()
		waits = append(waits, req.Wait)
		mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	}))
	defer stub.Close()

	const (
		poll = 500 * time.Millisecond
		span = 2 * time.Second
	)
	ctx, cancel := context.WithTimeout(context.Background(), span)
	defer cancel()
	w := &Worker{ID: "w1", Coordinator: stub.URL, Poll: poll}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	// One call to learn the queue is empty, then one per Poll.
	if max := 2 + int(span/poll); len(waits) > max {
		t.Errorf("%d lease calls in %v at Poll %v, want <= %d", len(waits), span, poll, max)
	}
	if len(waits) < 2 {
		t.Fatalf("%d lease calls in %v, want at least 2", len(waits), span)
	}
	if waits[0] {
		t.Error("first lease call carried wait")
	}
	for i, wait := range waits[1:] {
		if !wait {
			t.Errorf("lease call %d after a 204 did not carry wait", i+1)
		}
	}
}
