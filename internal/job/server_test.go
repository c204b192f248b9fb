package job

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parsurf"
	"parsurf/internal/store"
)

// smokeSpec is the CI smoke workload: a 32² ziff run submitted as raw
// JSON, exactly what a curl client would post.
const smokeSpec = `{
  "spec": {
    "model": null,
    "lattice": {"l0": 32, "l1": 32},
    "engine": {"name": "ziff", "y": 0.52},
    "seed": 42
  },
  "replicas": 4,
  "workers": 2,
  "until": 10,
  "every": 1
}`

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(data)
}

// The full HTTP workflow: submit → status poll → JSON result → CSV
// result. This is the same sequence the CI smoke step drives with
// curl, run here under the race detector.
func TestServerSubmitStatusResult(t *testing.T) {
	m := newMemManager(t, 2, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/jobs", smokeSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("submit returned no job id")
	}

	deadline := time.Now().Add(60 * time.Second)
	for {
		code, body := getBody(t, ts.URL+"/jobs/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("status: %d %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", st.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("state %s (err %q), want done", st.State, st.Error)
	}
	if st.Progress.GridPointsMerged != st.Progress.TotalGridPoints || st.Progress.TotalGridPoints == 0 {
		t.Fatalf("progress %d/%d at completion",
			st.Progress.GridPointsMerged, st.Progress.TotalGridPoints)
	}

	code, body2 := getBody(t, ts.URL+"/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d %s", code, body2)
	}
	var res ResultResponse
	if err := json.Unmarshal([]byte(body2), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Variants) != 1 {
		t.Fatalf("%d variants, want 1", len(res.Variants))
	}
	v := res.Variants[0]
	if len(v.T) != 11 || len(v.Mean) != 3 || len(v.Mean[0]) != 11 {
		t.Fatalf("result shape: %d grid points, %d species", len(v.T), len(v.Mean))
	}
	if v.Species[1] != "CO" {
		t.Fatalf("species %v", v.Species)
	}

	code, csv := getBody(t, ts.URL+"/jobs/"+st.ID+"/result?format=csv")
	if code != http.StatusOK {
		t.Fatalf("csv result: %d %s", code, csv)
	}
	if !strings.HasPrefix(csv, "t,*,CO,O\n") {
		t.Fatalf("csv header: %q", csv[:min(len(csv), 40)])
	}
	if lines := strings.Count(strings.TrimSpace(csv), "\n"); lines != 11 {
		t.Fatalf("csv has %d data lines, want 11", lines)
	}

	// The job list includes it.
	code, list := getBody(t, ts.URL+"/jobs")
	if code != http.StatusOK || !strings.Contains(list, st.ID) {
		t.Fatalf("list: %d %s", code, list)
	}
}

// Cancelling over HTTP aborts the replicas.
func TestServerCancel(t *testing.T) {
	m := newMemManager(t, 1, 0)
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
	code, body2 := postJSON(t, ts.URL+"/jobs/"+st.ID+"/cancel", "")
	if code != http.StatusOK {
		t.Fatalf("cancel: %d %s", code, body2)
	}
	j, ok := m.Get(st.ID)
	if !ok {
		t.Fatal("job vanished")
	}
	waitTerminal(t, j, 10*time.Second)
	if s := j.Status().State; s != StateCancelled {
		t.Fatalf("state %s after cancel", s)
	}
	// Result of a cancelled job is a conflict, not a hang.
	code, _ = getBody(t, ts.URL+"/jobs/"+st.ID+"/result")
	if code != http.StatusConflict {
		t.Fatalf("result of cancelled job: %d, want 409", code)
	}
}

// Malformed submissions are rejected with registry-aware messages.
func TestServerSubmitErrors(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	cases := []struct {
		name, body, wantSubstr string
	}{
		{"no spec", `{"until": 1, "every": 1}`, `spec`},
		{"unknown engine", `{"spec": {"engine": {"name": "nope"}}, "until": 1, "every": 1}`, "unknown engine"},
		{"unknown field", `{"spec": {"engine": {"name": "ziff"}, "bogus": 1}, "until": 1, "every": 1}`, "bogus"},
		{"missing model", `{"spec": {"engine": {"name": "rsm"}}, "until": 1, "every": 1}`, "needs a model"},
		{"bad grid", `{"spec": {"engine": {"name": "ziff"}}, "until": 0, "every": 1}`, "grid"},
		{"y out of range", `{"spec": {"engine": {"name": "ziff", "y": 1.5}}, "until": 1, "every": 1}`, "outside [0,1]"},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+"/jobs", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, code, body)
			continue
		}
		if !strings.Contains(string(body), tc.wantSubstr) {
			t.Errorf("%s: error %s does not mention %q", tc.name, body, tc.wantSubstr)
		}
	}

	if code, _ := getBody(t, ts.URL+"/jobs/job-999"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	event string
	data  string
}

// readSSE consumes the stream until (and including) the first frame
// with the given terminal event name.
func readSSE(t *testing.T, r io.Reader, until string) []sseFrame {
	t.Helper()
	var (
		frames []sseFrame
		cur    sseFrame
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
				if cur.event == until {
					return frames
				}
				cur = sseFrame{}
			}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case strings.HasPrefix(line, ":"):
			// Comment frame (heartbeat): not an event.
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	t.Fatalf("stream ended without %q (got %d frames)", until, len(frames))
	return nil
}

// GET /jobs/{id}/events streams progress frames and a terminal done
// frame in SSE framing.
func TestServerSSEEvents(t *testing.T) {
	m := newMemManager(t, 2, 0)
	defer m.Close()
	srv := NewServer(m)
	srv.eventInterval = 2 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/jobs", smokeSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("events content type %q", ct)
	}
	frames := readSSE(t, resp.Body, "done")
	last := frames[len(frames)-1]
	if last.event != "done" {
		t.Fatalf("final frame event %q", last.event)
	}
	var frame EventFrame
	if err := json.Unmarshal([]byte(last.data), &frame); err != nil {
		t.Fatalf("done frame data %q: %v", last.data, err)
	}
	if frame.ID != st.ID || frame.State != StateDone {
		t.Fatalf("done frame %+v", frame)
	}
	if len(frame.ReplicaTimes) != 4 {
		t.Fatalf("done frame has %d replica times, want 4", len(frame.ReplicaTimes))
	}
	for i, rt := range frame.ReplicaTimes {
		if rt < 10 {
			t.Fatalf("replica %d frontier %v below the horizon", i, rt)
		}
	}
	for _, f := range frames[:len(frames)-1] {
		if f.event != "progress" {
			t.Fatalf("mid-stream frame event %q", f.event)
		}
	}
	// A stream opened on an already-terminal job yields the done frame
	// immediately.
	resp2, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if frames := readSSE(t, resp2.Body, "done"); len(frames) != 1 {
		t.Fatalf("terminal-job stream sent %d frames, want 1", len(frames))
	}
}

// Between progress frames the event stream carries ": heartbeat"
// comment lines, keeping idle proxied connections alive without
// emitting spurious events.
func TestServerSSEHeartbeat(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	srv := NewServer(m)
	// Progress frames effectively off; heartbeats fast.
	srv.eventInterval = time.Hour
	srv.heartbeatInterval = 2 * time.Millisecond
	ts := httptest.NewServer(srv)
	defer ts.Close()

	long := `{
	  "spec": {"lattice": {"l0": 24, "l1": 24}, "engine": {"name": "ziff", "y": 0.51}},
	  "replicas": 1, "workers": 1, "until": 1e9, "every": 1e6
	}`
	code, body := postJSON(t, ts.URL+"/jobs", long)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	heartbeats, events := 0, 0
	for sc.Scan() && heartbeats < 5 {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, ": heartbeat"):
			heartbeats++
		case strings.HasPrefix(line, "event: "):
			events++
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if heartbeats < 5 {
		t.Fatalf("stream ended after %d heartbeats", heartbeats)
	}
	// Only the initial progress frame; every later keep-alive is a
	// comment, not an event.
	if events != 1 {
		t.Fatalf("%d event frames alongside heartbeats, want 1", events)
	}

	// The terminal frame still arrives through the heartbeat cadence.
	postJSON(t, ts.URL+"/jobs/"+st.ID+"/cancel", "")
	frames := readSSE(t, resp.Body, "done")
	if last := frames[len(frames)-1]; last.event != "done" {
		t.Fatalf("final frame event %q", last.event)
	}
}

// The CSV result endpoint declares its media type and download name,
// streams the same bytes the JSON grid carries, and a result requested
// before the job is terminal is a 409, not a 500.
func TestServerCSVHeadersAndConflict(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	// Non-terminal job: result is a conflict.
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
	if code, _ := getBody(t, ts.URL+"/jobs/"+st.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result of running job: %d, want 409", code)
	}
	if code, _ := getBody(t, ts.URL+"/jobs/"+st.ID+"/result?format=csv"); code != http.StatusConflict {
		t.Fatalf("csv result of running job: %d, want 409", code)
	}
	postJSON(t, ts.URL+"/jobs/"+st.ID+"/cancel", "")

	// Completed job: proper CSV headers.
	code, body = postJSON(t, ts.URL+"/jobs", smokeSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	j, _ := m.Get(st.ID)
	waitTerminal(t, j, 60*time.Second)

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("csv: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv; charset=utf-8" {
		t.Fatalf("csv content type %q", ct)
	}
	cd := resp.Header.Get("Content-Disposition")
	if !strings.Contains(cd, "attachment") || !strings.Contains(cd, st.ID) {
		t.Fatalf("csv content disposition %q", cd)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "t,*,CO,O\n") {
		t.Fatalf("csv header: %q", string(data[:min(len(data), 40)]))
	}
	if code, _ := getBody(t, ts.URL+"/jobs/"+st.ID+"/result?format=csv&variant=9"); code != http.StatusBadRequest {
		t.Fatalf("out-of-range variant: %d, want 400", code)
	}
}

// /healthz answers as soon as the server is up; /version echoes the
// configured stamp.
func TestServerHealthzAndVersion(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	srv := NewServer(m)
	srv.SetVersion("v-test-1")
	ts := httptest.NewServer(srv)
	defer ts.Close()

	code, body := getBody(t, ts.URL+"/healthz")
	if code != http.StatusOK || !strings.Contains(body, `"ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body = getBody(t, ts.URL+"/version")
	if code != http.StatusOK || !strings.Contains(body, "v-test-1") {
		t.Fatalf("version: %d %s", code, body)
	}
}

// GET /jobs lists jobs in submission order — pinned, not
// map-iteration luck: the listing is compared against the exact
// submission sequence.
func TestServerListDeterministicOrder(t *testing.T) {
	m := newMemManager(t, 2, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	var want []string
	for i := 0; i < 6; i++ {
		spec := strings.Replace(smokeSpec, `"seed": 42`, fmt.Sprintf(`"seed": %d`, i+1), 1)
		code, body := postJSON(t, ts.URL+"/jobs", spec)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, body)
		}
		var st Status
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		want = append(want, st.ID)
	}
	for round := 0; round < 3; round++ {
		code, body := getBody(t, ts.URL+"/jobs")
		if code != http.StatusOK {
			t.Fatalf("list: %d %s", code, body)
		}
		var got []Status
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("list has %d jobs, want %d", len(got), len(want))
		}
		for i, st := range got {
			if st.ID != want[i] {
				t.Fatalf("round %d: list[%d] = %s, want %s", round, i, st.ID, want[i])
			}
		}
	}
}

// GET /jobs supports ?state= filtering and ?limit=/?after= pagination:
// filtering applies before paging, pages walk the submission order, and
// malformed parameters are 400s.
func TestServerListFilterAndPagination(t *testing.T) {
	m := newMemManager(t, 1, 0)
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	// The first job runs long enough to pin the single runner while the
	// rest queue behind it, so cancelling the last job (still queued) and
	// then the blocker yields a deterministic mixed-state table:
	// cancelled, done ×4, cancelled. The blocker sits in the ZGB reactive
	// window (y = 0.5) on a 64² lattice so it cannot poison out early.
	spec := `{"spec": {"model": null, "lattice": {"l0": %d, "l1": %d},
		"engine": {"name": "ziff", "y": %g}, "seed": %d}, "until": %g, "every": %g}`
	var ids []string
	for i := 0; i < 6; i++ {
		body := fmt.Sprintf(spec, 16, 16, 0.52, i+1, 2.0, 1.0)
		if i == 0 {
			body = fmt.Sprintf(spec, 64, 64, 0.5, 1, 1e6, 5e5)
		}
		code, resp := postJSON(t, ts.URL+"/jobs", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, resp)
		}
		var st Status
		if err := json.Unmarshal(resp, &st); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	last, _ := m.Get(ids[5])
	last.Cancel()
	blocker, _ := m.Get(ids[0])
	blocker.Cancel()
	for _, id := range ids {
		j, _ := m.Get(id)
		waitTerminal(t, j, 60*time.Second)
	}
	cancelled := []string{ids[0], ids[5]}

	list := func(query string) []Status {
		t.Helper()
		code, body := getBody(t, ts.URL+"/jobs"+query)
		if code != http.StatusOK {
			t.Fatalf("list%s: %d %s", query, code, body)
		}
		var out []Status
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	idsOf := func(sts []Status) []string {
		var out []string
		for _, st := range sts {
			out = append(out, st.ID)
		}
		return out
	}

	if got := idsOf(list("?state=cancelled")); !equalStrings(got, cancelled) {
		t.Fatalf("state=cancelled: %v, want %v", got, cancelled)
	}
	if got := idsOf(list("?state=done")); !equalStrings(got, ids[1:5]) {
		t.Fatalf("state=done: %v, want %v", got, ids[1:5])
	}
	if got := list("?state=queued"); len(got) != 0 {
		t.Fatalf("state=queued: %v, want empty", idsOf(got))
	}
	// Page through everything two at a time.
	var walked []string
	after := ""
	for {
		q := "?limit=2"
		if after != "" {
			q += "&after=" + after
		}
		page := list(q)
		if len(page) == 0 {
			break
		}
		if len(page) > 2 {
			t.Fatalf("page of %d with limit=2", len(page))
		}
		walked = append(walked, idsOf(page)...)
		after = page[len(page)-1].ID
	}
	if !equalStrings(walked, ids) {
		t.Fatalf("paged walk %v, want %v", walked, ids)
	}
	// Filter composes with pagination.
	if got := idsOf(list("?state=done&after=" + ids[1] + "&limit=2")); !equalStrings(got, ids[2:4]) {
		t.Fatalf("done page after %s: %v, want %v", ids[1], got, ids[2:4])
	}
	// An id the filter drops never matches "after": the page is empty.
	if got := list("?state=done&after=" + ids[0]); len(got) != 0 {
		t.Fatalf("after filtered-out id: %v, want empty", idsOf(got))
	}
	// An unknown "after" yields an empty page, not an error.
	if got := list("?after=job-999"); len(got) != 0 {
		t.Fatalf("after unknown id: %v, want empty", idsOf(got))
	}
	// Malformed parameters are client errors.
	for _, q := range []string{"?limit=0", "?limit=-3", "?limit=x", "?state=bogus"} {
		if code, _ := getBody(t, ts.URL+"/jobs"+q); code != http.StatusBadRequest {
			t.Fatalf("list%s: %d, want 400", q, code)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Over HTTP, a durable server answers a repeated submission from the
// result cache: accepted response already done and flagged cached,
// result identical, and "nocache" forces a fresh run.
func TestServerCacheHitOverHTTP(t *testing.T) {
	st := store.NewMem()
	m, err := NewManagerWithStore(2, 0, st)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	code, body := postJSON(t, ts.URL+"/jobs", smokeSpec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, body)
	}
	var first Status
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	j, _ := m.Get(first.ID)
	waitTerminal(t, j, 60*time.Second)
	_, want := getBody(t, ts.URL+"/jobs/"+first.ID+"/result?format=csv")

	code, body = postJSON(t, ts.URL+"/jobs", smokeSpec)
	if code != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", code, body)
	}
	var hit Status
	if err := json.Unmarshal(body, &hit); err != nil {
		t.Fatal(err)
	}
	if hit.State != StateDone || !hit.Cached {
		t.Fatalf("resubmission status %+v, want cached done", hit)
	}
	_, got := getBody(t, ts.URL+"/jobs/"+hit.ID+"/result?format=csv")
	if got != want {
		t.Fatal("cached CSV differs from the original")
	}
	if n := m.RunsStarted(); n != 1 {
		t.Fatalf("RunsStarted %d after cache hit, want 1", n)
	}
	// JSON result body carries the cached flag.
	_, res := getBody(t, ts.URL+"/jobs/"+hit.ID+"/result")
	if !strings.Contains(res, `"cached":true`) {
		t.Fatalf("cached result body lacks the flag: %s", res[:min(len(res), 120)])
	}

	nocache := strings.Replace(smokeSpec, `"replicas": 4,`, `"nocache": true, "replicas": 4,`, 1)
	code, body = postJSON(t, ts.URL+"/jobs", nocache)
	if code != http.StatusAccepted {
		t.Fatalf("nocache submit: %d %s", code, body)
	}
	var fresh Status
	if err := json.Unmarshal(body, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Cached {
		t.Fatal("nocache submission served from cache")
	}
	j, _ = m.Get(fresh.ID)
	waitTerminal(t, j, 60*time.Second)
	if n := m.RunsStarted(); n != 2 {
		t.Fatalf("RunsStarted %d after nocache, want 2", n)
	}
}

// smokeHash is the content hash of smokeSpec: the result-cache key the
// CI smoke workload is stored under. It derives from the spec's Hash
// (canonical bytes and the ziff engine's epoch) and the run shape, so
// it is pinned — a change orphans every stored result.
const smokeHash = "e49f143cbc9b96130014024f4cdb14ef1aa7dd44d1c89de3f4881a2365ec8ebc"

func TestSmokeRequestHashPinned(t *testing.T) {
	var body SubmitRequest
	if err := json.Unmarshal([]byte(smokeSpec), &body); err != nil {
		t.Fatal(err)
	}
	m := newMemManager(t, 1, 0)
	defer m.Close()
	j, err := m.Submit(Request{
		Specs:    []*parsurf.SessionSpec{body.Spec},
		Replicas: body.Replicas,
		Workers:  body.Workers,
		Until:    body.Until,
		Every:    body.Every,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := j.Hash(); got != smokeHash {
		t.Errorf("smoke request hash %s, want %s", got, smokeHash)
	}
	waitTerminal(t, j, 30*time.Second)
}
