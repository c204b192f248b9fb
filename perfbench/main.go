package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, e *env) (*result, error)
}

var workloads = []workload{
	{"ca-scaling", runCAScaling},
	{"sweep-direct", runSweepDirect},
	{"surfd-local", runSurfdLocal},
	{"surfd-fleet", runSurfdFleet},
}

// sizes fixes the input sizes of every workload. The smoke test runs the
// same code at reduced sizes.
type sizes struct {
	// Set-ups per run, spread over setupTime; setup_s is their median.
	setupReps int
	setupTime time.Duration

	caSide, caSteps, caMinRounds int // lattice side, MC steps per window, timed rounds

	// The fixed job: ZGB variants on fixedSide², fixedReplicas each.
	fixedSide, fixedReplicas, fixedMinOps int
	fixedUntil, fixedEvery                float64

	localSide, localReplicas, localJobs int // lattice side, replicas per job, jobs per round
	localUntil, localEvery              float64
}

var fullSizes = sizes{
	setupReps: 25, setupTime: 2 * time.Second,
	caSide: 256, caSteps: 32, caMinRounds: 3,
	fixedSide: 64, fixedReplicas: 16, fixedMinOps: 3, fixedUntil: 20, fixedEvery: 0.1,
	localSide: 32, localReplicas: 4, localJobs: 500, localUntil: 0.25, localEvery: 0.0125,
}

// env is what one run of a workload is given.
type env struct {
	seed   uint64
	budget time.Duration // how long each pass measures
	trace  bool          // add the traced pass and report per-layer metrics
	dir    string        // scratch directory for stores
	size   sizes
	procs  int // GOMAXPROCS at start: the worker count of the speedup windows
	out    io.Writer
}

func (e *env) logf(format string, args ...any) {
	fmt.Fprintf(e.out, format+"\n", args...)
}

// result is a workload's outcome: operations and checks attempted and
// failed, plus the metrics of both runs.
type result struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	spans             []span // traced pass only
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// op records one attempted operation; a non-nil error counts it failed.
func (r *result) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
	}
}

// check records one correctness check.
func (r *result) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// oneCore pins the Go scheduler to one processor and returns the undo.
// On a shared host what a second goroutine gains depends on whether the
// neighbours leave a second core free, which changes within seconds; on
// one processor a workload's times depend on the code. Concurrency is
// unchanged: clients, runners and workers still interleave.
func oneCore() func() {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// timeSetups runs setup setupReps times, spread evenly over setupTime,
// and returns the median duration in seconds. A burst of load from the
// host's neighbours lasts tens of milliseconds; spread over seconds, one
// burst covers a few set-ups, not most. A fixed count, not as many as
// fit, keeps the sockets a fleet set-up leaves in TIME_WAIT from piling
// up and slowing later connects. Each set-up starts from a collected
// heap, so garbage an earlier one left behind is not billed to a later
// one; the returned cleanup, if any, runs outside the timing.
func timeSetups(e *env, setup func() (cleanup func(), err error)) (float64, error) {
	times := make([]float64, e.size.setupReps)
	slot := e.size.setupTime / time.Duration(len(times))
	start := time.Now()
	for r := range times {
		runtime.GC()
		time.Sleep(time.Until(start.Add(time.Duration(r) * slot)))
		t := time.Now()
		cleanup, err := setup()
		times[r] = time.Since(t).Seconds()
		if err != nil {
			return 0, err
		}
		if cleanup != nil {
			cleanup()
		}
	}
	return median(times), nil
}

// heapAlloc returns the bytes the process has allocated so far.
func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 2003, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "how long each timed pass measures")
	traced := flag.Int("trace", 0, "1: also run the traced pass and report the per-layer metrics instead of the end-to-end ones")
	dir := flag.String("dir", filepath.Join(".bench_build", "perfbench"), "directory for scratch stores and the span file")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	out, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, *dir, fullSizes, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// runWorkload runs one workload in a fresh scratch directory and
// assembles the result line: the end-to-end metrics, or with trace the
// per-layer ones.
func runWorkload(w *workload, seed uint64, budget time.Duration, trace bool, dir string, sz sizes, out io.Writer) (*output, error) {
	scratch := filepath.Join(dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	e := &env{seed: seed, budget: budget, trace: trace, dir: scratch, size: sz,
		procs: runtime.GOMAXPROCS(0), out: out}
	e.logf("perfbench %s: seed %d, %s per pass, GOMAXPROCS %d, trace %v", w.name, seed, budget, e.procs, trace)
	res, err := w.run(context.Background(), e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if trace {
		if err := writeSpans(filepath.Join(dir, "spans-"+w.name+".jsonl"), res); err != nil {
			return nil, err
		}
	}
	o := &output{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	e.logf("%-40s %16s  %s", "metric", "value", "unit")
	for _, m := range endToEnd {
		v, ok := res.e2e[m.name]
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", w.name, m.name)
		}
		e.logf("%-40s %16.6g  %s", m.name, v, m.unit)
		if !trace {
			o.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	if trace {
		for _, m := range perLayer() {
			v := res.layer[m.name]
			o.Metrics[m.name] = metricValue{v, m.unit}
			e.logf("%-40s %16.6g  %s", m.name, v, m.unit)
		}
	}
	if o.Attempted < 1 {
		return nil, fmt.Errorf("%s attempted nothing", w.name)
	}
	return o, nil
}
