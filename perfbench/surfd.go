package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"parsurf"
	"parsurf/internal/fleet"
	"parsurf/internal/job"
	"parsurf/internal/store"
)

// Deployment settings: the cmd/surfd defaults, except the checkpoint
// interval. At 1 s a job of a few seconds writes several snapshots, as a
// 20 s job does at the 5 s default.
const (
	surfdRunners    = 2
	checkpointEvery = time.Second
	fleetWorkers    = 2 // in-process workers, one replica goroutine each
	localClients    = 2
)

// service is an in-process surfd behind an httptest server, with
// its fleet coordinator and workers in fleet mode.
type service struct {
	url     string
	srv     *httptest.Server
	mgr     *job.Manager
	coord   *fleet.Coordinator
	stop    context.CancelFunc
	wg      sync.WaitGroup
	workers []*workerTap
}

func (s *service) close() {
	if s.stop != nil {
		s.stop()
		s.wg.Wait()
	}
	s.srv.Close()
	s.mgr.Close()
	if s.coord != nil {
		s.coord.Close()
	}
}

func openStore(dir, tag string, tr *tracer) (store.Store, error) {
	fs, err := store.OpenFS(dir)
	if err != nil {
		return nil, err
	}
	return tapStore(fs, tag, tr), nil
}

func tapStore(st store.Store, tag string, tr *tracer) store.Store {
	if tr == nil {
		return st
	}
	return &tappedStore{Store: st, tr: tr, tag: tag}
}

func tapServer(h http.Handler, tr *tracer, layer string, depth int) http.Handler {
	if tr == nil {
		return h
	}
	return &serverTap{next: h, tr: tr, layer: layer, depth: depth}
}

// startLocal boots a single-node surfd on a fresh in-memory store:
// store, manager recovery, HTTP server. The manager writes every record
// and result through the store as on disk, and store.Mem round-trips
// each through the same JSON encoding as store.FS; only the fsyncs are
// missing. Their cost is the disk's, not the program's: on a shared
// disk it swung a disk-backed round's throughput by a third between
// runs of the same code.
func startLocal(tr *tracer) (*service, error) {
	st := tapStore(store.NewMem(), "surfd", tr)
	mgr, err := job.NewManagerWithStore(surfdRunners, job.DefaultBacklog, st, job.CheckpointEvery(checkpointEvery))
	if err != nil {
		return nil, err
	}
	srv := httptest.NewServer(tapServer(job.NewServer(mgr), tr, "http", depthServer))
	return &service{url: srv.URL, srv: srv, mgr: mgr}, nil
}

// startFleet opens a durable coordinator as cmd/surfd -fleet composes it
// and joins in-process workers, each with its own store for shard
// checkpoints. It returns once every worker's first lease call answered.
func startFleet(dir string, tr *tracer) (*service, error) {
	st, err := openStore(filepath.Join(dir, "coordinator"), "coordinator", tr)
	if err != nil {
		return nil, err
	}
	coord, err := fleet.New(st)
	if err != nil {
		return nil, err
	}
	mgr, err := job.NewManagerWithStore(surfdRunners, job.DefaultBacklog, st,
		job.CheckpointEvery(checkpointEvery), job.WithExecutor(coord))
	if err != nil {
		coord.Close()
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/", tapServer(job.NewServer(mgr), tr, "http", depthServer))
	mux.Handle("/fleet/", tapServer(fleet.NewHandler(coord), tr, "fleet", depthFleetServer))
	srv := httptest.NewServer(job.Recoverer(mux))
	s := &service{url: srv.URL, srv: srv, mgr: mgr, coord: coord}
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	for i := 0; i < fleetWorkers; i++ {
		name := fmt.Sprintf("w%d", i)
		wst, err := openStore(filepath.Join(dir, name), name, tr)
		if err != nil {
			s.close()
			return nil, err
		}
		tap := &workerTap{base: http.DefaultTransport.(*http.Transport).Clone(), tr: tr, tag: name,
			first: make(chan struct{})}
		w := &fleet.Worker{ID: name, Coordinator: srv.URL, Workers: 1, Store: wst,
			CheckpointEvery: checkpointEvery, Client: &http.Client{Transport: tap, Timeout: 2 * time.Minute}}
		s.workers = append(s.workers, tap)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			w.Run(ctx)
		}()
	}
	for _, w := range s.workers {
		select {
		case <-w.first:
		case <-time.After(30 * time.Second):
			s.close()
			return nil, fmt.Errorf("worker %s made no lease call", w.tag)
		}
	}
	return s, nil
}

// loadClient drives surfd like a user: submit, follow the event stream
// until the job is done, download every variant's CSV.
type loadClient struct {
	url string
	hc  *http.Client
	tr  *tracer
}

func newLoadClient(url string, tr *tracer) *loadClient {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxConnsPerHost = localClients
	var rt http.RoundTripper = t
	if tr != nil {
		rt = &clientTap{base: t, tr: tr}
	}
	return &loadClient{url: url, hc: &http.Client{Transport: rt}, tr: tr}
}

// jobRun is one job as the client saw it.
type jobRun struct {
	id      string
	key     string // the job's key in the trace
	cached  bool
	csv     [][]byte
	steps   uint64  // engine steps the job's replicas took
	latency float64 // seconds from POST to the last CSV byte
	deliver float64 // seconds from the done frame to the last CSV byte
}

func (c *loadClient) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, fmt.Errorf("%s %s: %s %s", method, path, resp.Status, bytes.TrimSpace(msg))
	}
	return resp, nil
}

// run submits one job and waits for its CSVs. op names the operation in
// the trace.
func (c *loadClient) run(ctx context.Context, op string, body []byte, variants int) (*jobRun, error) {
	var root int64
	if c.tr != nil {
		ctx = withOp(ctx, op)
		root = c.tr.now()
	}
	start := time.Now()
	resp, err := c.do(ctx, http.MethodPost, "/jobs", body)
	if err != nil {
		return nil, err
	}
	var st job.Status
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("decoding submit response: %w", err)
	}
	jr := &jobRun{id: st.ID, cached: st.Cached}
	if c.tr != nil {
		jr.key = c.tr.bindJob(st.ID, op)
	}
	final, err := c.waitDone(ctx, st.ID)
	if err != nil {
		return nil, err
	}
	if final.State != job.StateDone {
		return nil, fmt.Errorf("job %s ended %s: %s", st.ID, final.State, final.Error)
	}
	jr.steps = final.Progress.Steps
	doneAt := time.Now()
	for v := 0; v < variants; v++ {
		resp, err := c.do(ctx, http.MethodGet, fmt.Sprintf("/jobs/%s/result?format=csv&variant=%d", st.ID, v), nil)
		if err != nil {
			return nil, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		jr.csv = append(jr.csv, data)
	}
	jr.latency = time.Since(start).Seconds()
	jr.deliver = time.Since(doneAt).Seconds()
	if c.tr != nil {
		c.tr.add(span{Name: "job", Layer: "other", Depth: depthOp, Start: root, End: c.tr.now(), Op: op, Job: st.ID})
	}
	return jr, nil
}

// waitDone follows the job's SSE stream to its terminal frame.
func (c *loadClient) waitDone(ctx context.Context, id string) (*job.Status, error) {
	resp, err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	rd := bufio.NewReaderSize(resp.Body, 1<<16)
	done := false
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("event stream of %s ended early: %w", id, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case line == "event: done":
			done = true
		case done && strings.HasPrefix(line, "data: "):
			var f job.EventFrame
			if err := json.Unmarshal([]byte(line[len("data: "):]), &f); err != nil {
				return nil, fmt.Errorf("decoding done frame of %s: %w", id, err)
			}
			// The stream ends after the done frame. Reading it to the end
			// returns the connection to the pool; closing it unread would
			// leave one socket in TIME_WAIT per job, and tens of thousands
			// of those slow every later connect on the host.
			if _, err := io.Copy(io.Discard, rd); err != nil {
				return nil, fmt.Errorf("event stream of %s: %w", id, err)
			}
			return &f.Status, nil
		}
	}
}

// result fetches a finished job's merged series.
func (c *loadClient) result(ctx context.Context, id string) (*job.ResultResponse, error) {
	resp, err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/result", nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rr job.ResultResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		return nil, err
	}
	return &rr, nil
}

// repeatEvery makes every 4th submission of a client repeat the spec it
// submitted three submissions earlier: a result-cache hit.
const repeatEvery = 4

// localRequests makes every client's submissions of a round. The n-th
// body of a client is a small ZGB ensemble on the RSM engine whose seed
// derives from the workload seed, except every repeatEvery-th, which
// repeats the body repeatEvery-1 submissions earlier.
func localRequests(seed uint64, sz sizes) ([][][]byte, error) {
	bodies := make([][][]byte, localClients)
	for c := range bodies {
		bodies[c] = make([][]byte, (sz.localJobs+localClients-1)/localClients)
		for n := range bodies[c] {
			if n%repeatEvery == repeatEvery-1 {
				bodies[c][n] = bodies[c][n-(repeatEvery-1)]
				continue
			}
			spec, err := parsurf.NewSpec(parsurf.WithModelPreset("zgb", nil),
				parsurf.WithLattice(sz.localSide, sz.localSide), parsurf.WithEngine("rsm"),
				parsurf.WithSeed(seed*1_000_003+uint64(c)<<32+uint64(n)))
			if err != nil {
				return nil, err
			}
			if bodies[c][n], err = json.Marshal(job.SubmitRequest{Spec: spec, Replicas: sz.localReplicas,
				Until: sz.localUntil, Every: sz.localEvery}); err != nil {
				return nil, err
			}
		}
	}
	return bodies, nil
}

// localOutcome is one client's share of a surfd-local pass.
type localOutcome struct {
	runs   []*jobRun
	errs   []error
	checks []error // cache-hit mismatches; nil entries passed
}

// runSurfdLocal drives an in-process surfd with small jobs from two
// closed-loop clients, so the job manager, store encoding, JSON and HTTP
// dominate. A round boots a fresh surfd and runs localJobs jobs; rounds
// repeat until the budget is spent. The manager keeps every job it ran
// in memory, so a round's cost would grow with the jobs before it: fresh
// rounds keep every round's work identical and the process small.
func runSurfdLocal(ctx context.Context, e *env) (*result, error) {
	defer oneCore()()
	res := newResult()
	// Set-up boots surfd and makes a round's request bodies.
	var bodies [][][]byte
	setup, err := timeSetups(e, func() (func(), error) {
		svc, err := startLocal(nil)
		if err != nil {
			return nil, err
		}
		if bodies, err = localRequests(e.seed, e.size); err != nil {
			svc.close()
			return nil, err
		}
		return svc.close, nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	runs, rates, allocMB, err := localPass(ctx, e, nil, bodies, res)
	if err != nil {
		return nil, err
	}
	lat := latencies(runs)
	res.e2e["time_to_result_s"] = median(lat)
	res.e2e["throughput_per_s"] = median(rates)
	res.layer["alloc.mb_per_op"] = allocMB / float64(len(runs))
	tail := tailPercentile(len(lat))
	e.logf("untraced: %d rounds, %d jobs; %.1f jobs/s (median round); latency p50 %.4f s, p%d %.4f s (n=%d)",
		len(rates), len(runs), median(rates), median(lat), tail, quantile(lat, float64(tail)/100), len(lat))
	if !e.trace {
		return res, nil
	}

	spinNs, capacity := calibrateHost(e.procs)
	res.layer["host.spin_ns"], res.layer["host.parallel_capacity"] = spinNs, capacity
	tr := newTracer()
	passStart := tr.now()
	traced, _, _, err := localPass(ctx, e, tr, bodies, res)
	if err != nil {
		return nil, err
	}
	passEnd := tr.now()
	res.layer["trace.overhead"] = median(latencies(traced))/median(lat) - 1
	serviceLayers(e, tr, traced, passStart, passEnd, "engine", res)
	return res, nil
}

// localPass runs rounds until the budget is spent and at least one ran.
// It returns the completed jobs, each round's jobs per second and the
// megabytes allocated.
func localPass(ctx context.Context, e *env, tr *tracer, bodies [][][]byte, res *result) ([]*jobRun, []float64, float64, error) {
	var runs []*jobRun
	var rates []float64
	alloc := 0.0
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < e.budget; r++ {
		if tr != nil {
			tr.setEpoch(fmt.Sprintf("traced-round-%d/", r))
		}
		svc, err := startLocal(tr)
		if err != nil {
			return nil, nil, 0, err
		}
		before := heapAlloc()
		t := time.Now()
		got := localRound(ctx, svc, tr, bodies, res)
		wall := time.Since(t).Seconds()
		alloc += float64(heapAlloc()-before) / 1e6
		svc.close()
		runs = append(runs, got...)
		rates = append(rates, float64(len(got))/wall)
	}
	if len(runs) == 0 {
		return nil, nil, 0, fmt.Errorf("no job completed")
	}
	return runs, rates, alloc, nil
}

// localRound submits every client's bodies, one client per goroutine,
// and checks every cache hit against the run it repeats.
func localRound(ctx context.Context, svc *service, tr *tracer, bodies [][][]byte, res *result) []*jobRun {
	client := newLoadClient(svc.url, tr)
	defer client.hc.CloseIdleConnections()
	outs := make([]localOutcome, len(bodies))
	var wg sync.WaitGroup
	for c := range outs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			out := &outs[c]
			first := map[int]*jobRun{}
			for n, body := range bodies[c] {
				jr, err := client.run(ctx, fmt.Sprintf("c%d-%d", c, n), body, 1)
				out.errs = append(out.errs, err)
				if err != nil {
					continue
				}
				out.runs = append(out.runs, jr)
				if n%repeatEvery != repeatEvery-1 {
					first[n] = jr
					continue
				}
				orig := first[n-(repeatEvery-1)]
				switch {
				case orig == nil:
					out.checks = append(out.checks, fmt.Errorf("job %s repeats a failed submission", jr.id))
				case !jr.cached:
					out.checks = append(out.checks, fmt.Errorf("job %s repeats %s but missed the cache", jr.id, orig.id))
				case !bytes.Equal(jr.csv[0], orig.csv[0]):
					out.checks = append(out.checks, fmt.Errorf("cached job %s CSV differs from %s", jr.id, orig.id))
				default:
					out.checks = append(out.checks, nil)
				}
			}
		}(c)
	}
	wg.Wait()
	var runs []*jobRun
	for _, out := range outs {
		for _, err := range out.errs {
			res.op(err)
		}
		for _, err := range out.checks {
			res.check(err == nil, "%v", err)
		}
		runs = append(runs, out.runs...)
	}
	return runs
}

// runSurfdFleet submits the fixed job to an in-process coordinator with
// two in-process workers: leases, heartbeats, the binary result upload,
// shard records and the coordinator merge. Its difference from
// sweep-direct is the fleet's overhead.
func runSurfdFleet(ctx context.Context, e *env) (*result, error) {
	defer oneCore()()
	res := newResult()
	setup, err := timeSetups(e, func() (func(), error) {
		svc, err := startFleet(filepath.Join(e.dir, "setup"), nil)
		if err != nil {
			return nil, err
		}
		return svc.close, nil
	})
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup

	fj, err := newFixedJob(e.seed, e.size)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(job.SubmitRequest{Specs: fj.specs, Replicas: fj.replicas, Workers: 1,
		Until: fj.until, Every: fj.every, NoCache: true})
	if err != nil {
		return nil, err
	}
	svc, err := startFleet(filepath.Join(e.dir, "untraced"), nil)
	if err != nil {
		return nil, err
	}
	runs, results, allocMB := fleetPass(ctx, e, svc, nil, body, len(fj.specs), res)
	svc.close()
	if len(runs) == 0 {
		return nil, fmt.Errorf("no fleet job completed")
	}
	lat := latencies(runs)
	ttr := median(lat)
	res.e2e["time_to_result_s"] = ttr
	res.e2e["throughput_per_s"] = float64(fj.totalReplicas()) / ttr
	res.layer["alloc.mb_per_op"] = allocMB / float64(len(runs))
	e.logf("untraced: %d jobs of %d replicas, time to result median %.4f s (min %.4f, max %.4f)",
		len(runs), fj.totalReplicas(), ttr, quantile(lat, 0), quantile(lat, 1))

	// Every job must return the first job's result, and one variant,
	// chosen by the seed, must match the same ensemble run in-process,
	// computed once the timed pass is over.
	v := int(e.seed % uint64(len(fj.specs)))
	ref, err := parsurf.RunEnsemble(ctx, fj.specs[v], fj.replicas, 1, fj.until, fj.every)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no fleet result fetched")
	}
	first := results[0]
	checkFleet := func(results []*job.ResultResponse) {
		for _, rr := range results {
			ok := len(rr.Variants) == len(fj.specs) && sameMoments(ref, rr.Variants[v].Mean, rr.Variants[v].Std)
			for w := 0; ok && w < len(fj.specs); w++ {
				ok = sameRows(first.Variants[w].Mean, rr.Variants[w].Mean) && sameRows(first.Variants[w].Std, rr.Variants[w].Std)
			}
			res.check(ok, "fleet job %s result differs from the in-process run (variant %d) or from job %s", rr.ID, v, first.ID)
		}
	}
	checkFleet(results)
	if !e.trace {
		return res, nil
	}

	spinNs, capacity := calibrateHost(e.procs)
	res.layer["host.spin_ns"], res.layer["host.parallel_capacity"] = spinNs, capacity
	tr := newTracer()
	svc, err = startFleet(filepath.Join(e.dir, "traced"), tr)
	if err != nil {
		return nil, err
	}
	passStart := tr.now()
	traced, results, _ := fleetPass(ctx, e, svc, tr, body, len(fj.specs), res)
	passEnd := tr.now()
	counters := svc.coord.Counters()
	svc.close()
	if len(traced) == 0 {
		return nil, fmt.Errorf("no traced fleet job completed")
	}
	checkFleet(results)
	res.layer["trace.overhead"] = median(latencies(traced))/ttr - 1
	res.layer["fleet.expiries"] = float64(counters.Expiries)
	res.layer["fleet.requeues"] = float64(counters.Requeues)
	res.layer["ensemble.replicas_per_op"] = float64(fj.totalReplicas())
	serviceLayers(e, tr, traced, passStart, passEnd, "fleet", res)
	return res, nil
}

// fleetPass submits the fixed job, one at a time, until the budget is
// spent and fixedMinOps jobs ran, then fetches each result for the
// correctness check.
func fleetPass(ctx context.Context, e *env, svc *service, tr *tracer, body []byte, variants int, res *result) ([]*jobRun, []*job.ResultResponse, float64) {
	client := newLoadClient(svc.url, tr)
	defer client.hc.CloseIdleConnections()
	var runs []*jobRun
	before := heapAlloc()
	start := time.Now()
	for i := 0; i < e.size.fixedMinOps || time.Since(start) < e.budget; i++ {
		jr, err := client.run(ctx, fmt.Sprintf("job-%d", i), body, variants)
		res.op(err)
		if err == nil {
			runs = append(runs, jr)
		}
	}
	allocMB := float64(heapAlloc()-before) / 1e6
	var results []*job.ResultResponse
	for _, jr := range runs {
		rr, err := client.result(ctx, jr.id)
		res.op(err)
		if err == nil {
			results = append(results, rr)
		}
	}
	return runs, results, allocMB
}

func latencies(runs []*jobRun) []float64 {
	out := make([]float64, len(runs))
	for i, jr := range runs {
		out[i] = jr.latency
	}
	return out
}

// serviceLayers turns a traced surfd pass into the per-layer metrics:
// store calls, HTTP delivery, job phases, fleet calls, engine cost and
// the self-time shares. runLayer is the layer a job's run counts
// toward: the engine on a single node, the fleet when a coordinator
// hands the work to workers.
func serviceLayers(e *env, tr *tracer, runs []*jobRun, from, to int64, runLayer string, res *result) {
	phases := tr.jobPhases(runLayer)
	spans := tr.finish()
	res.spans = spans
	ops := float64(len(runs))
	ms := func(s *span) float64 { return float64(s.End-s.Start) / 1e6 }
	collect := func(keep func(*span) bool) (durs []float64, attrs map[string]float64) {
		attrs = map[string]float64{}
		for i := range spans {
			if s := &spans[i]; keep(s) {
				durs = append(durs, ms(s))
				for k, v := range s.Attrs {
					attrs[k] += float64(v)
				}
			}
		}
		return durs, attrs
	}

	storeBytes := map[string]float64{}
	for _, op := range storeOps {
		durs, attrs := collect(func(s *span) bool { return s.Layer == "store" && s.Name == op })
		res.layer["store."+op+".per_op"] = float64(len(durs)) / ops
		res.layer["store."+op+".ms_p50"] = median(durs)
		res.layer["store."+op+".ms_per_op"] = sum(durs) / ops
		storeBytes[op] = attrs["bytes"]
	}
	for _, op := range storeByteOps {
		res.layer["store."+op+".bytes_per_op"] = storeBytes[op] / ops
	}
	res.layer["store.busy_share"] = busyShare(spans, func(s *span) bool { return s.Layer == "store" }, from, to)

	server := func(s *span) bool { return s.Layer == "http" && s.Depth == depthServer }
	reqs, _ := collect(server)
	res.layer["http.requests_per_op"] = float64(len(reqs)) / ops
	for i := range spans {
		if s := &spans[i]; server(s) {
			switch code := s.Attrs["status"]; {
			case code == http.StatusTooManyRequests:
				res.layer["http.status_429"]++
				res.layer["http.status_4xx"]++
			case code >= 400 && code < 500:
				res.layer["http.status_4xx"]++
			case code >= 500:
				res.layer["http.status_5xx"]++
			}
			res.layer["http.sse.frames_per_op"] += float64(s.Attrs["frames"]) / ops
		}
	}
	csv, csvAttrs := collect(func(s *span) bool { return server(s) && strings.HasSuffix(s.Name, "?csv") })
	res.layer["http.csv.bytes_per_op"] = csvAttrs["bytes"] / ops
	if t := sum(csv); t > 0 {
		res.layer["http.csv.mb_per_s"] = csvAttrs["bytes"] / 1e6 / (t / 1e3)
	}
	submitServer, _ := collect(func(s *span) bool { return server(s) && s.Name == "POST /jobs" })
	res.layer["http.submit.server_ms_p50"] = median(submitServer)
	submit, _ := collect(func(s *span) bool { return s.Depth == depthClient && s.Name == "POST /jobs" })
	res.layer["job.submit_ms_p50"] = median(submit)

	var queue, run, deliver, lat []float64
	var steps, hits float64
	for _, jr := range runs {
		lat = append(lat, jr.latency*1e3)
		deliver = append(deliver, jr.deliver*1e3)
		steps += float64(jr.steps)
		if jr.cached {
			hits++
		}
		if p, ok := phases[jr.key]; ok {
			queue = append(queue, float64(p.running-p.queued)/1e6)
			run = append(run, float64(p.done-p.running)/1e6)
		}
	}
	res.layer["job.queue_wait_ms_p50"] = median(queue)
	res.layer["job.queue_wait_ms_p90"] = quantile(queue, 0.9)
	res.layer["job.run_ms_p50"] = median(run)
	res.layer["job.run_ms_p90"] = quantile(run, 0.9)
	res.layer["job.deliver_ms_p50"] = median(deliver)
	res.layer["job.latency_ms_p90"] = quantile(lat, 0.9)
	res.layer["job.cache_hit_share"] = hits / ops
	e.logf("traced: %d jobs; latency p50 %.3f ms, p90 %.3f ms (n=%d); queue wait p50 %.3f ms, p90 %.3f ms (n=%d); run p50 %.3f ms, p90 %.3f ms",
		len(runs), median(lat), quantile(lat, 0.9), len(lat), median(queue), quantile(queue, 0.9), len(queue), median(run), quantile(run, 0.9))

	worker := func(name string) func(*span) bool {
		return func(s *span) bool {
			return s.Layer == "fleet" && s.Depth == depthShard && strings.Contains(s.Name, name)
		}
	}
	leases, _ := collect(worker("/fleet/lease"))
	grants, _ := collect(func(s *span) bool { return worker("/fleet/lease")(s) && s.Attrs["status"] == http.StatusOK })
	res.layer["fleet.lease.calls_per_op"] = float64(len(leases)) / ops
	res.layer["fleet.lease.grants_per_op"] = float64(len(grants)) / ops
	if len(leases) > 0 {
		res.layer["fleet.lease.useful_ratio"] = float64(len(grants)) / float64(len(leases))
	}
	res.layer["fleet.lease.rtt_ms_p50"] = median(leases)
	hb, _ := collect(worker("/heartbeat"))
	res.layer["fleet.heartbeat.calls_per_op"] = float64(len(hb)) / ops
	results, resultAttrs := collect(worker("/result"))
	res.layer["fleet.result.calls_per_op"] = float64(len(results)) / ops
	if resultAttrs["replicas"] > 0 {
		res.layer["fleet.result.bytes_per_replica"] = resultAttrs["bytes"] / resultAttrs["replicas"]
	}
	res.layer["fleet.result.rtt_ms_p50"] = median(results)
	resultServer, _ := collect(func(s *span) bool {
		return s.Layer == "fleet" && s.Depth == depthFleetServer && strings.HasSuffix(s.Name, "/result")
	})
	res.layer["fleet.result.server_ms_p50"] = median(resultServer)

	// The engine's cost per step, as far as it can be seen from outside:
	// the self time of a single-node job's run (sampling and merge
	// included), or of the fleet's shard compute.
	compute := "job.run"
	if runLayer == "fleet" {
		compute = "shard"
		idle := 0.0
		for i := 0; i < fleetWorkers; i++ {
			tag := fmt.Sprintf("w%d", i)
			idle += 1 - busyShare(spans, func(s *span) bool { return s.Name == "shard" && s.Tag == tag }, from, to)
		}
		res.layer["fleet.worker.idle_share"] = idle / fleetWorkers
	}
	computeNs := 0.0
	for _, s := range spans {
		if s.Name == compute {
			computeNs += float64(s.selfNs)
		}
	}
	if steps > 0 {
		res.layer["engine.ns_per_step"] = computeNs / steps
	}
	res.layer["engine.steps_per_op"] = steps / ops
	shares(e, spans, 0, res)
}
