// Command perfbench is the repository's benchmark: four workloads that
// together cover the partitioned CA engines, the event-driven DMC engines
// with the ensemble layer, and the surfd service tier with and without
// its fleet. It builds against the sources of the checkout it sits in
// (see run.sh) and runs one workload per invocation:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The seed makes the inputs; the same seed gives the same inputs. Every
// pass measures for about --seconds. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. A run
// whose outputs fail a correctness check prints correct=false and exits
// 1.
//
// # Workloads
//
// All load is closed loop: a client sends its next request when the
// previous one completed.
//
//   - ca-scaling: ZGB on 256², default rates. pndca, typepart and ddrsm
//     run at one worker and at GOMAXPROCS workers, rsm and lpndca
//     serially. A window runs 32 MC steps from the seed's initial state,
//     so every window of a configuration does identical work; rounds
//     visit all configurations, alternating direction, until the budget
//     is spent. This is the paper's headline kernel: the engine layer
//     does all the work and the service tier none, so job, store and
//     fleet changes must leave it unchanged. Checks: pndca and typepart
//     reach equal configurations at both worker counts, and every
//     configuration reproduces its first window's final state.
//   - sweep-direct: the fixed job through parsurf.RunSweep. The fixed job
//     is ZGB on 64² with four variants (vssm and frm, each at kCO 0.50
//     and 0.55), 16 replicas each, until 20 every 0.1 (201 grid points).
//     The DMC engines dominate, with ensemble pooling, sampling and the
//     Welford merge; store, HTTP and fleet are bypassed. Checks: every
//     sweep's moments equal the first's bit for bit, and one variant's
//     equal RunReplicaRange rows merged through an index-ordered
//     ensemble accumulator.
//   - surfd-local: an in-process surfd (job.NewManagerWithStore with 2
//     runners and the default backlog on a fresh store.Mem, job.NewServer
//     behind httptest). A round runs 500 jobs from 2 clients, each job
//     ZGB 32² rsm, 4 replicas, until 0.25 every 0.0125: POST, follow the
//     SSE stream to done, GET the CSV. Every 4th submission of a client
//     repeats its submission 3 earlier, a result cache hit. Jobs this
//     small (a few ms of engine work) let the job manager, the store's
//     record encoding, JSON and HTTP dominate, and the 25% of repeats
//     make cache-path changes show. The store is store.Mem, which
//     encodes every record as store.FS does but skips the disk: on a
//     shared disk the fsyncs swung a round's throughput by a third
//     between runs of the same code. How many records a job writes still
//     shows in store.*.per_op. Rounds repeat, each on a fresh surfd: the
//     manager keeps every job in memory, so a long round would slow with
//     its own history. Check: every cache hit's CSV equals its first
//     run's byte for byte.
//   - surfd-fleet: the fixed job, submitted with "nocache": true, to an
//     in-process coordinator composed as cmd/surfd -fleet composes it
//     (fleet.New, job.WithExecutor, fleet.NewHandler beside job.NewServer,
//     behind job.Recoverer) with 2 in-process fleet.Workers, each with
//     one replica goroutine, the default poll and lease TTL, and its own
//     FS store for shard checkpoints. Only this workload exercises
//     leases, heartbeats, the binary result upload, shard records and
//     the coordinator merge; it runs the same job as sweep-direct, so the
//     difference between the two medians (both logged) is the fleet's
//     overhead. Checks: every
//     job returns the first job's result, and one variant equals the
//     same ensemble run in-process, bit for bit.
//
// The surfd workloads set the checkpoint interval to 1 s instead of
// cmd/surfd's 5 s default; every other setting is the default.
//
// sweep-direct, surfd-local and surfd-fleet pin GOMAXPROCS to 1, and the
// ca-scaling end-to-end metrics come from its one-worker windows. On a
// shared host, what a second goroutine gains depends on whether the
// neighbours leave a second core free, which changes within seconds; a
// gated number that depended on it would measure the neighbours. Real-core
// speedups are per-layer metrics, next to host.parallel_capacity. On one
// processor, the time a call waits for the processor while another
// goroutine computes counts toward the layer that made the call.
//
// # End-to-end metrics
//
// The untraced run reports them; every workload reports all three.
//
//   - setup_s (s, lower is better): the median of 25 set-ups spread
//     over 2 s, so that a burst of the neighbours' load covers a few of
//     them, not most. ca-scaling:
//     compile the model and build all eight sessions. sweep-direct:
//     build the fixed job's specs and one session each. surfd-local:
//     boot surfd (store, manager recovery, server start) and make a
//     round's 500 request bodies. surfd-fleet: boot the coordinator on
//     its data directory and both workers on theirs, until both workers
//     made their first lease call.
//   - time_to_result_s (s, lower is better): ca-scaling: the sum of the
//     one-worker window times of pndca, typepart and ddrsm, each the
//     fastest decile of that configuration's windows. sweep-direct: the
//     fastest decile of the RunSweep wall times. Every window and every
//     sweep does identical work; the slower ones waited for the host's
//     neighbours. surfd-local: the median job latency, POST to the last
//     CSV byte. surfd-fleet: the median time from POST to the last byte
//     of all four variant CSVs; a service's latency is its distribution,
//     so the surfd workloads keep the median.
//   - throughput_per_s (1/s, higher is better): ca-scaling: trials per
//     second over those windows. sweep-direct and surfd-fleet: replicas
//     per second at that time to result. surfd-local: jobs per second,
//     the median over rounds.
//
// The run also logs each timing's tail: the highest percentile with at
// least ten samples beyond it, with the sample count.
//
// # Per-layer metrics
//
// --trace 1 runs the untraced pass, then the same pass again with taps
// on, and reports the per-layer metrics (perLayer lists them; a layer a
// workload does not exercise reads zero). Each layer is timed from
// outside, through its public API: a store.Store decorator, middleware
// around job.NewServer and fleet.NewHandler, an http.RoundTripper on the
// load client and on every fleet.Worker, parsurf.ObserveReplicas with
// RunReplicaRange and ensemble.Accumulator for the engine, sampling and
// merge split. Spans (name, layer, start, end, parent, operation, job,
// shard, byte and count attributes) stay in memory and are written as
// JSON lines to <dir>/spans-<workload>.jsonl. A span's self time is its
// duration minus what its children cover; share.* are each layer's self
// time over the sum, and trace.overhead is the traced pass's median
// operation time over the untraced one's, minus one.
//
//   - host.spin_ns, host.parallel_capacity: a register-only loop's cost
//     and how many copies GOMAXPROCS goroutines complete in one copy's
//     time. Low capacity flags a run whose speedups reflect neighbours.
//   - engine.*: ns per step (trial or event) and steps per operation;
//     per-engine ns per trial at one worker and at GOMAXPROCS with the
//     speedup (ca-scaling), ns per event for vssm and frm
//     (sweep-direct). They move time_to_result_s and throughput_per_s.
//   - machine.*: internal/machine's predicted speedup with its default
//     constants and with constants fitted to the run (trial cost from the
//     one-worker windows, per-chunk synchronisation from the GOMAXPROCS
//     windows; with two worker counts the barrier and spawn costs cannot
//     be separated, which the run notes).
//   - ensemble.*: Reset cost per replica, sampling per grid point, merge
//     per replica, replicas per operation (sweep-direct).
//   - job.*: submit, queue wait and run (from the job states the store
//     tap sees), delivery from the done frame to the last CSV byte, the
//     latency tail, and the cache-hit share (surfd-local, surfd-fleet).
//   - store.<op>.*: calls, median and total time and payload bytes per
//     operation for each store call, and the store's busy share.
//   - http.*: requests, status classes, SSE frames and CSV bytes per
//     operation, CSV throughput, and the submit handler's median time.
//   - fleet.*: lease, heartbeat and result calls per operation, useful
//     leases, round trips, result bytes per replica, worker idle share,
//     and the coordinator's expiry and requeue counters.
//   - share.*, trace.overhead, alloc.mb_per_op: where the time goes, what
//     tracing costs, and the heap allocated per operation.
//
// A counted quantity (steps, calls, bytes per operation) repeats exactly
// for a seed; times do not.
//
// # Claiming a gain
//
// A change that claims a gain names the end-to-end metric and the
// workload it moves, and the per-layer metric that shows where, before
// it is measured; the other workloads are predicted unchanged. It does
// not change this benchmark. Parent and change run with the same
// --seconds, alternating, at least ten pairs.
package main
