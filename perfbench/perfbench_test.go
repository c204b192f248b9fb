package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// smokeSizes runs every workload in a few seconds.
var smokeSizes = sizes{
	setupReps: 2,
	caSide:    32, caSteps: 2, caMinRounds: 1,
	fixedSide: 16, fixedReplicas: 2, fixedMinOps: 1, fixedUntil: 1, fixedEvery: 0.25,
	localSide: 16, localReplicas: 2, localJobs: 8, localUntil: 0.25, localEvery: 0.05,
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsSmoke runs every workload of BENCHMARK.json at reduced
// size, untraced and traced, and checks that all checks pass and that
// each run reports exactly the metrics BENCHMARK.json lists, with their
// units.
func TestWorkloadsSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, listed := range bf.Workloads {
		var w *workload
		for i := range workloads {
			if workloads[i].name == listed.Name {
				w = &workloads[i]
			}
		}
		if w == nil {
			t.Fatalf("BENCHMARK.json workload %q is not run", listed.Name)
		}
		for _, trace := range []bool{false, true} {
			out, err := runWorkload(w, 7, time.Millisecond, trace, t.TempDir(), smokeSizes, io.Discard)
			if err != nil {
				t.Fatalf("%s (trace %v): %v", w.name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s (trace %v): correct %v, %d of %d failed", w.name, trace, out.Correct, out.Failed, out.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s (trace %v): %d metrics, BENCHMARK.json lists %d", w.name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (trace %v): metric %s: got %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
