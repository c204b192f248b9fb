package main

import (
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"parsurf/internal/fleet"
)

// A worker parked in a waiting lease must not hold the graceful drain:
// shutdown releases it at once with a 204.
func TestShutdownReleasesParkedLease(t *testing.T) {
	srv, shutdown, err := newServer(serverConfig{
		runners: 1, backlog: 4, dataDir: t.TempDir(),
		fleet: true, shardSize: fleet.DefaultShardSize, leaseTTL: fleet.DefaultLeaseTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	url := "http://" + ln.Addr().String() + "/fleet/lease"
	client := &http.Client{Timeout: time.Minute}
	lease := func(body string) (int, error) {
		resp, err := client.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	}

	// Without "wait" the empty queue answers at once.
	start := time.Now()
	if code, err := lease(`{"worker":"w1"}`); err != nil || code != http.StatusNoContent {
		t.Fatalf("plain lease: %d, %v", code, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("plain lease on an empty queue took %v", d)
	}

	type answer struct {
		code int
		err  error
		at   time.Time
	}
	parked := make(chan answer, 1)
	go func() {
		code, err := lease(`{"worker":"w1","wait":true}`)
		parked <- answer{code, err, time.Now()}
	}()
	select {
	case a := <-parked:
		t.Fatalf("waiting lease answered before shutdown: %d, %v", a.code, a.err)
	case <-time.After(300 * time.Millisecond):
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	begin := time.Now()
	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown(ctx) }()
	select {
	case a := <-parked:
		if a.err != nil || a.code != http.StatusNoContent {
			t.Fatalf("released lease: %d, %v", a.code, a.err)
		}
		if d := a.at.Sub(begin); d > 100*time.Millisecond {
			t.Errorf("parked lease ended %v after shutdown began, want < 100ms", d)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("parked lease still held 3s after shutdown began")
	}
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}
