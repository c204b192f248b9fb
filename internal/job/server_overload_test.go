package job

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// Oversized submissions are refused with 413 before the decoder reads
// the whole body, so a misbehaving client cannot balloon the server.
func TestServerSubmitBodyTooLarge(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	big := `{"padding": "` + strings.Repeat("x", maxSubmitBody+1) + `"}`
	code, body := postJSON(t, ts.URL+"/jobs", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: %d %s, want 413", code, body)
	}
	if !strings.Contains(string(body), "exceeds") {
		t.Errorf("413 body %s does not explain the limit", body)
	}
	// The server still works afterwards.
	if code, _ := getBody(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after 413: %d", code)
	}
}

// A full backlog surfaces as 429 with a Retry-After hint, the
// load-shedding contract clients key off.
func TestServerBacklogFull429(t *testing.T) {
	m := newMemManager(t, 1, 1)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	long := `{
	  "spec": {"lattice": {"l0": 24, "l1": 24}, "engine": {"name": "ziff", "y": 0.51}},
	  "replicas": 2, "workers": 2, "until": 1e9, "every": 1e6
	}`
	code, body := postJSON(t, ts.URL+"/jobs", long)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	runner, ok := m.Get(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	// Wait until the runner demonstrably holds the first job, so the
	// backlog is empty and its capacity the only variable.
	deadline := time.Now().Add(30 * time.Second)
	for runner.Status().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("first job never started (state %s)", runner.Status().State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, body := postJSON(t, ts.URL+"/jobs", long); code != http.StatusAccepted {
		t.Fatalf("queued submit: %d %s", code, body)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(long))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-backlog submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}
}

// The max_duration request field flows through the HTTP layer: the job
// is killed at its budget and lands in the deadline_exceeded state,
// which the list filter understands.
func TestServerMaxDuration(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	long := `{
	  "spec": {"lattice": {"l0": 24, "l1": 24}, "engine": {"name": "ziff", "y": 0.51}},
	  "until": 1e9, "every": 1e6, "max_duration": "50ms"
	}`
	code, body := postJSON(t, ts.URL+"/jobs", long)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	j, ok := m.Get(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	if fin := waitTerminal(t, j, 30*time.Second); fin.State != StateDeadlineExceeded {
		t.Fatalf("state %s (err %q), want deadline_exceeded", fin.State, fin.Error)
	}
	code, list := getBody(t, ts.URL+"/jobs?state=deadline_exceeded")
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, list)
	}
	var sts []Status
	if err := json.Unmarshal([]byte(list), &sts); err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 || sts[0].ID != st.ID {
		t.Fatalf("state filter returned %+v, want just %s", sts, st.ID)
	}

	// A malformed duration is a client error, not a silent default.
	bad := strings.Replace(long, `"50ms"`, `"soon"`, 1)
	if code, body := postJSON(t, ts.URL+"/jobs", bad); code != http.StatusBadRequest {
		t.Fatalf("bogus max_duration: %d %s, want 400", code, body)
	}
}

// A panicking handler is contained by the Recoverer middleware: the
// client sees a 500 carrying a request id, and the process survives.
func TestRecovererContainsPanic(t *testing.T) {
	h := Recoverer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("500 response has no X-Request-Id")
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out["error"], id) {
		t.Errorf("error %q does not reference request id %s", out["error"], id)
	}
}

// http.ErrAbortHandler is the net/http idiom for deliberately dropping
// a connection; the middleware must let it propagate untouched.
func TestRecovererPassesAbortHandler(t *testing.T) {
	h := Recoverer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if v := recover(); v == nil {
			t.Fatal("ErrAbortHandler swallowed by Recoverer")
		}
	}()
	req := httptest.NewRequest(http.MethodGet, "/abort", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)
}
