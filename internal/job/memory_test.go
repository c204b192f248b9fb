package job

import (
	"runtime"
	"testing"
	"time"

	"parsurf"
	"parsurf/internal/store"
)

// heapAlloc is the live heap after a full collection.
func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// A finished job keeps only its status: after a collection the heap
// grows by under 2 KB per terminal job of the surfd-local benchmark's
// shape (ZGB on RSM, 32², 4 replicas), both for jobs that ran in this
// process and for jobs recovered from their records. The store is on
// disk, so the bytes counted are the manager's and not a store's copies
// of the records.
func TestTerminalJobsKeepOnlyStatus(t *testing.T) {
	const jobs, maxPerJob = 300, 2 << 10
	req := func(seed uint64) Request {
		spec, err := parsurf.NewSpec(parsurf.WithModelPreset("zgb", nil),
			parsurf.WithLattice(32, 32), parsurf.WithEngine("rsm"), parsurf.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		return Request{Specs: []*parsurf.SessionSpec{spec}, Replicas: 4, Until: 0.25, Every: 0.0125}
	}
	dir := t.TempDir()
	st, err := store.OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := newStoreManager(t, st)
	defer func() { m.Close() }()
	// Run a batch to done, then wait until the runners have dropped every
	// job's specs.
	runBatch := func(first, n int) {
		batch := make([]*Job, n)
		for i := range batch {
			if batch[i], err = m.Submit(req(uint64(first + i))); err != nil {
				t.Fatal(err)
			}
		}
		for _, j := range batch {
			if s := waitTerminal(t, j, 30*time.Second); s.State != StateDone {
				t.Fatalf("job %s: %s (%s)", j.ID(), s.State, s.Error)
			}
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			held := 0
			for _, j := range batch {
				if j.Request().Specs != nil {
					held++
				}
			}
			if held == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d finished jobs still hold their specs", held)
			}
		}
	}
	runBatch(0, 4) // process-wide caches and pools warm up outside the count
	before := heapAlloc()
	for first := 4; first < 4+jobs; first += 50 {
		runBatch(first, 50)
	}
	grew := (heapAlloc() - before) / jobs
	t.Logf("live %d B/job", grew)
	if grew >= maxPerJob {
		t.Fatalf("heap grew %d B per finished job, want < %d", grew, maxPerJob)
	}

	m.Close()
	m = nil
	before = heapAlloc()
	st, err = store.OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	m = newStoreManager(t, st)
	if n := len(m.Jobs()); n != 4+jobs {
		t.Fatalf("recovered %d jobs, want %d", n, 4+jobs)
	}
	grew = (heapAlloc() - before) / (4 + jobs)
	t.Logf("recovered %d B/job", grew)
	if grew >= maxPerJob {
		t.Fatalf("heap grew %d B per recovered job, want < %d", grew, maxPerJob)
	}
}
