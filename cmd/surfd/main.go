// Command surfd serves simulation jobs over HTTP: POST a serialized
// session spec (the same JSON `surfsim -spec` runs), poll its status,
// stream its progress as SSE, fetch the merged coverage series as JSON
// or CSV, cancel it. The library is the executor; any client that can
// speak JSON can drive the paper's whole comparison matrix without
// writing Go.
//
// Jobs persist before acknowledgment in a content-addressed store, and
// a resubmission of an already-computed workload is answered from the
// result cache without re-simulating. Without -data the store lives in
// memory and is lost at exit. With -data it lives under the data
// directory: completed results survive restarts, interrupted jobs are
// re-queued on boot, and running replicas snapshot themselves every
// -checkpoint-interval, so a killed server resumes interrupted jobs from
// the latest checkpoints instead of from zero — with a result
// byte-identical to an uninterrupted run. Jobs whose run keeps crashing
// the process are quarantined after a few attempts rather than
// crash-looping the service.
//
//	surfd -addr :8080 -runners 2 -data /var/lib/surfd -checkpoint-interval 5s
//
//	curl -s localhost:8080/jobs -d '{
//	  "spec": {
//	    "lattice": {"l0": 64, "l1": 64},
//	    "engine":  {"name": "ziff", "y": 0.52},
//	    "seed":    42
//	  },
//	  "replicas": 8, "workers": 4, "until": 50, "every": 0.5
//	}'
//	curl -s localhost:8080/jobs/job-1
//	curl -sN localhost:8080/jobs/job-1/events
//	curl -s localhost:8080/jobs/job-1/result?format=csv
//	curl -s -X POST localhost:8080/jobs/job-1/cancel
//
// With -fleet (which needs -data), surfd also coordinates a worker
// fleet: every job's (variant × replica) space is split into
// replica-range shards handed to workers under expiring leases via the
// /fleet/ API, and the returned per-replica rows merge through the same
// index-ordered accumulator a local run uses — the result is
// byte-identical to single-node for any fleet size or shard layout.
// Workers are surfd processes started with -worker:
//
//	surfd -addr :8080 -data /var/lib/surfd -fleet -shard-size 8
//	surfd -worker -coordinator http://head:8080 -runners 4
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"parsurf/internal/fleet"
	"parsurf/internal/job"
	"parsurf/internal/store"
)

// buildVersion is the default stamp GET /version reports; override at
// link time (-ldflags "-X main.buildVersion=v1.2.3") or at startup
// with -version.
var buildVersion = "dev"

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		runners   = flag.Int("runners", 2, "concurrent jobs (each fans replicas over its own workers); in -worker mode, replica goroutines per shard")
		backlog   = flag.Int("backlog", job.DefaultBacklog, "queued-job capacity")
		dataDir   = flag.String("data", "", "data directory for job records, results and the result cache, which then survive restarts (empty: kept in memory and lost at exit)")
		ckptEvery = flag.Duration("checkpoint-interval", 5*time.Second, "how often running replicas snapshot into the data directory for crash-exact resume (0 disables)")
		version   = flag.String("version", buildVersion, "version stamp echoed by GET /version")
		withPprof = flag.Bool("pprof", false, "serve Go runtime profiles under /debug/pprof/ (opt-in: profiles expose internals, keep off on untrusted networks)")

		maxJobDuration = flag.Duration("max-job-duration", 0, "wall-clock run budget per job; past it the job ends deadline_exceeded (0: unlimited; a request's max_duration may only tighten it)")
		maxCells       = flag.Int64("max-cells", 0, "reject submissions whose lattice exceeds this many cells per variant with 400 (0: uncapped)")
		maxReplicas    = flag.Int("max-replicas", 0, "reject submissions whose total replica count (specs × replicas) exceeds this with 400 (0: uncapped)")
		maxActiveCost  = flag.Int64("max-active-cost", 0, "aggregate cost budget (lattice cells × concurrent replicas + species × grid points, summed over admitted unfinished jobs); submissions past it shed with 429 (0: unbounded)")
		shutdownWait   = flag.Duration("shutdown-timeout", 5*time.Second, "bound on the graceful drain after SIGINT/SIGTERM; past it open connections (e.g. stuck SSE peers) are dropped")
		chaosPanicSeed = flag.Uint64("chaos-panic-seed", 0, "chaos drills only: jobs with a spec seed equal to this panic inside replica 0, exercising panic containment (0: disabled)")

		fleetMode = flag.Bool("fleet", false, "coordinate a worker fleet: shard jobs over workers via the /fleet/ API (requires -data)")
		shardSize = flag.Int("shard-size", fleet.DefaultShardSize, "replicas per fleet shard")
		leaseTTL  = flag.Duration("lease-ttl", fleet.DefaultLeaseTTL, "fleet shard lease duration (workers heartbeat well inside it)")

		workerMode  = flag.Bool("worker", false, "run as a fleet worker instead of a server")
		coordinator = flag.String("coordinator", "", "coordinator base URL (worker mode, required)")
		workerID    = flag.String("worker-id", "", "worker name in leases (default hostname-pid)")
	)
	flag.Parse()
	var err error
	if *workerMode {
		err = runWorker(*coordinator, *workerID, *runners, *dataDir, *ckptEvery)
	} else {
		err = serve(serverConfig{
			addr: *addr, runners: *runners, backlog: *backlog,
			dataDir: *dataDir, ckptEvery: *ckptEvery,
			version: *version, withPprof: *withPprof,
			fleet: *fleetMode, shardSize: *shardSize, leaseTTL: *leaseTTL,
			maxJobDuration: *maxJobDuration, maxCells: *maxCells,
			maxReplicas: *maxReplicas, maxActiveCost: *maxActiveCost,
			shutdownWait: *shutdownWait, chaosPanicSeed: *chaosPanicSeed,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "surfd:", err)
		os.Exit(1)
	}
}

// serverConfig is the flag bundle of a server-mode surfd.
type serverConfig struct {
	addr      string
	runners   int
	backlog   int
	dataDir   string
	ckptEvery time.Duration
	version   string
	withPprof bool
	fleet     bool
	shardSize int
	leaseTTL  time.Duration

	maxJobDuration time.Duration
	maxCells       int64
	maxReplicas    int
	maxActiveCost  int64
	shutdownWait   time.Duration
	chaosPanicSeed uint64
}

// managerOptions translates the checkpoint and overload/containment
// flags into manager options.
func (cfg serverConfig) managerOptions() []job.ManagerOption {
	opts := []job.ManagerOption{job.CheckpointEvery(cfg.ckptEvery)}
	if cfg.maxJobDuration > 0 {
		opts = append(opts, job.MaxJobDuration(cfg.maxJobDuration))
	}
	if cfg.maxCells > 0 {
		opts = append(opts, job.MaxCells(cfg.maxCells))
	}
	if cfg.maxReplicas > 0 {
		opts = append(opts, job.MaxReplicas(cfg.maxReplicas))
	}
	if cfg.maxActiveCost > 0 {
		opts = append(opts, job.MaxActiveCost(cfg.maxActiveCost))
	}
	if cfg.chaosPanicSeed != 0 {
		opts = append(opts, job.ChaosPanicSeed(cfg.chaosPanicSeed))
	}
	return opts
}

// newServer composes the job manager, the optional fleet coordinator and
// the HTTP server for cfg. The returned shutdown ends the manager and the
// coordinator; call it once the server has stopped.
func newServer(cfg serverConfig) (*http.Server, func(), error) {
	if cfg.fleet && cfg.dataDir == "" {
		return nil, nil, fmt.Errorf("-fleet needs -data: the shard table is inherently durable")
	}
	var (
		st    = store.NewMem()
		coord *fleet.Coordinator
		err   error
	)
	if cfg.dataDir != "" {
		if st, err = store.OpenFS(cfg.dataDir); err != nil {
			return nil, nil, err
		}
	}
	opts := cfg.managerOptions()
	if cfg.fleet {
		if coord, err = fleet.New(st, fleet.ShardSize(cfg.shardSize), fleet.LeaseTTL(cfg.leaseTTL)); err != nil {
			return nil, nil, err
		}
		opts = append(opts, job.WithExecutor(coord))
	}
	mgr, err := job.NewManagerWithStore(cfg.runners, cfg.backlog, st, opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("recovering %s: %w", cfg.dataDir, err)
	}
	api := job.NewServer(mgr)
	api.SetVersion(cfg.version)
	var handler http.Handler = api
	if coord != nil || cfg.withPprof {
		// Mount the extra endpoints beside the job API on an explicit mux
		// (the job server stays the fallback for everything else) — never
		// via the global DefaultServeMux, so the endpoints exist only when
		// asked for.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		if coord != nil {
			mux.Handle("/fleet/", fleet.NewHandler(coord))
		}
		if cfg.withPprof {
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		}
		// The fleet and pprof endpoints sit outside the job server's own
		// recovery middleware; give the composed mux the same panic
		// containment.
		handler = job.Recoverer(mux)
	}
	srv := &http.Server{
		Addr:    cfg.addr,
		Handler: handler,
		// Transport hardening: a slow-loris client cannot hold a
		// connection open pre-request (ReadHeaderTimeout), a stalled
		// request read cannot wedge its handler forever (ReadTimeout —
		// the SSE endpoint exempts itself per-connection, its writes run
		// under their own per-write deadline), and idle keep-alives are
		// reaped (IdleTimeout). WriteTimeout stays zero on purpose: it
		// would sever long SSE streams and chunked CSV downloads that
		// are making progress.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	if coord != nil {
		// A worker parked in a waiting lease is an active request: release
		// the parked leases as the graceful drain begins, or they would hold
		// it until -shutdown-timeout.
		srv.RegisterOnShutdown(coord.Close)
	}
	shutdown := func() {
		// Close cancels running jobs (replicas abort within one engine
		// step) and leaves their stored records resumable: with -data
		// every state transition was fsync'd when it happened, so the
		// next boot re-queues exactly the interrupted jobs — and,
		// in fleet mode, the persisted shard table lets the re-queued jobs
		// replay already-delivered shards instead of re-running them.
		mgr.Close()
		if coord != nil {
			coord.Close()
		}
	}
	return srv, shutdown, nil
}

func serve(cfg serverConfig) error {
	if cfg.runners < 1 {
		cfg.runners = max(1, runtime.NumCPU()/2)
	}
	srv, shutdown, err := newServer(cfg)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		durable := "in-memory"
		if cfg.dataDir != "" {
			durable = "data " + cfg.dataDir
		}
		if cfg.fleet {
			durable += ", fleet"
		}
		fmt.Fprintf(os.Stderr, "surfd: listening on %s (%d runners, %s)\n", cfg.addr, cfg.runners, durable)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		shutdown()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "surfd: shutting down")
	wait := cfg.shutdownWait
	if wait <= 0 {
		wait = 5 * time.Second
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), wait)
	defer cancel()
	err = srv.Shutdown(shutdownCtx)
	if errors.Is(err, context.DeadlineExceeded) {
		// The graceful drain ran out its budget — some peer (a stuck
		// SSE consumer, a half-open connection) never finished. Drop
		// whatever is left; shutdown must terminate.
		srv.Close()
	}
	shutdown()
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// runWorker joins a fleet: lease a shard from the coordinator, run its
// replica range through the pooled session path, upload the rows,
// repeat until interrupted. With -data, running replicas snapshot into
// the local store every -checkpoint-interval and a restarted worker
// resumes a re-leased shard from its own checkpoints.
func runWorker(coordinator, id string, workers int, dataDir string, ckptEvery time.Duration) error {
	if coordinator == "" {
		return fmt.Errorf("-worker needs -coordinator URL")
	}
	if workers < 1 {
		workers = max(1, runtime.NumCPU()/2)
	}
	if id == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		id = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	var st store.Store
	if dataDir != "" {
		fs, err := store.OpenFS(dataDir)
		if err != nil {
			return err
		}
		st = fs
	}
	w := &fleet.Worker{
		ID:              id,
		Coordinator:     coordinator,
		Workers:         workers,
		Store:           st,
		CheckpointEvery: ckptEvery,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "surfd: "+format+"\n", args...)
		},
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "surfd: worker %s joining fleet at %s (%d replica goroutines)\n",
		id, coordinator, workers)
	return w.Run(ctx)
}
