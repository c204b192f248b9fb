package main

import (
	"math"
	"sort"
)

// metric is one reported quantity, named and united exactly as
// BENCHMARK.json lists it.
type metric struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload from the untraced pass. What one operation is depends on the
// workload (see the package comment).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"time_to_result_s", "s"},
	{"throughput_per_s", "1/s"},
}

// storeOps are the store.Store calls reported per operation; storeByteOps
// are those whose payload size is also reported.
var (
	storeOps = []string{"put_job", "put_result", "get_result", "put_checkpoint",
		"put_shard", "put_shard_result", "get_shard_result", "delete_checkpoints", "delete_shards"}
	storeByteOps = []string{"put_job", "put_result", "put_checkpoint", "put_shard", "put_shard_result"}
)

// shareLayers are the layers self time is attributed to; their shares
// sum to one per workload.
var shareLayers = []string{"engine", "sampling", "merge", "store", "http", "fleet", "queue", "other"}

// perLayer lists the traced run's metrics. Every workload reports all of
// them; a layer the workload does not exercise reads zero.
func perLayer() []metric {
	m := []metric{
		{"host.spin_ns", "ns"},
		{"host.parallel_capacity", "x"},
		{"engine.ns_per_step", "ns"},
		{"engine.steps_per_op", "count"},
	}
	for _, e := range []string{"pndca", "typepart", "ddrsm"} {
		m = append(m,
			metric{"engine." + e + ".ns_per_trial.p1", "ns"},
			metric{"engine." + e + ".ns_per_trial.pmax", "ns"},
			metric{"engine." + e + ".speedup", "x"})
	}
	m = append(m,
		metric{"engine.rsm.ns_per_trial.p1", "ns"},
		metric{"engine.lpndca.ns_per_trial.p1", "ns"},
		metric{"engine.vssm.ns_per_event", "ns"},
		metric{"engine.frm.ns_per_event", "ns"})
	for _, e := range []string{"pndca", "typepart", "ddrsm"} {
		m = append(m,
			metric{"machine." + e + ".predicted_speedup", "x"},
			metric{"machine." + e + ".fitted_speedup", "x"})
	}
	m = append(m,
		metric{"machine.fit.t_trial_ns", "ns"},
		metric{"machine.fit.t_sync_us", "us"},
		metric{"ensemble.reset_ns_per_replica", "ns"},
		metric{"ensemble.sample_ns_per_point", "ns"},
		metric{"ensemble.merge_ns_per_replica", "ns"},
		metric{"ensemble.replicas_per_op", "count"},
		metric{"job.submit_ms_p50", "ms"},
		metric{"job.queue_wait_ms_p50", "ms"},
		metric{"job.queue_wait_ms_p90", "ms"},
		metric{"job.run_ms_p50", "ms"},
		metric{"job.run_ms_p90", "ms"},
		metric{"job.deliver_ms_p50", "ms"},
		metric{"job.latency_ms_p90", "ms"},
		metric{"job.cache_hit_share", "share"})
	for _, op := range storeOps {
		m = append(m,
			metric{"store." + op + ".per_op", "count"},
			metric{"store." + op + ".ms_p50", "ms"},
			metric{"store." + op + ".ms_per_op", "ms"})
	}
	for _, op := range storeByteOps {
		m = append(m, metric{"store." + op + ".bytes_per_op", "B"})
	}
	m = append(m,
		metric{"store.busy_share", "share"},
		metric{"http.requests_per_op", "count"},
		metric{"http.status_4xx", "count"},
		metric{"http.status_429", "count"},
		metric{"http.status_5xx", "count"},
		metric{"http.sse.frames_per_op", "count"},
		metric{"http.csv.bytes_per_op", "B"},
		metric{"http.csv.mb_per_s", "MB/s"},
		metric{"http.submit.server_ms_p50", "ms"},
		metric{"fleet.lease.calls_per_op", "count"},
		metric{"fleet.lease.grants_per_op", "count"},
		metric{"fleet.lease.useful_ratio", "ratio"},
		metric{"fleet.lease.rtt_ms_p50", "ms"},
		metric{"fleet.heartbeat.calls_per_op", "count"},
		metric{"fleet.result.calls_per_op", "count"},
		metric{"fleet.result.bytes_per_replica", "B"},
		metric{"fleet.result.rtt_ms_p50", "ms"},
		metric{"fleet.result.server_ms_p50", "ms"},
		metric{"fleet.worker.idle_share", "share"},
		metric{"fleet.expiries", "count"},
		metric{"fleet.requeues", "count"})
	for _, l := range shareLayers {
		m = append(m, metric{"share." + l, "share"})
	}
	return append(m,
		metric{"trace.overhead", "ratio"},
		metric{"alloc.mb_per_op", "MB"})
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// fastest is the time an operation that always does identical work
// takes: the fastest decile of its runs. What lifts a run above that is
// the host. Its neighbours' load comes in bursts of a few seconds, which
// cover most runs of some passes and few of others: over ten 6 s
// sweep-direct passes on a 2-vCPU VM the median sweep ranged 1.75-2.37 s
// and the fastest 1.65-1.74 s.
func fastest(times []float64) float64 { return quantile(times, 0.1) }

// tailPercentile returns the highest of the usual reporting percentiles
// that still leaves at least ten of n samples above it, or 0 when even
// the median does not.
func tailPercentile(n int) int {
	for _, p := range []int{99, 98, 95, 90, 75, 50} {
		if float64(n)*float64(100-p)/100 >= 10 {
			return p
		}
	}
	return 0
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
