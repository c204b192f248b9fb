package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinSink keeps the calibration loop from being optimized away.
var spinSink atomic.Uint64

func spin(n int) {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink.Add(x)
}

// calibrateHost times a fixed xorshift loop on one goroutine and on
// procs goroutines at once. It returns the single-goroutine cost per
// iteration and the parallel capacity: how many loops' worth of work the
// host completes in one loop's time when procs run together (procs on an
// idle host, less when neighbours share the cores). It flags a contended
// run, whose speedups say more about the neighbours than about the code.
func calibrateHost(procs int) (spinNs, capacity float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	const n = 1 << 22
	const reps = 5
	single := make([]float64, reps)
	parallel := make([]float64, reps)
	for r := 0; r < reps; r++ {
		t := time.Now()
		spin(n)
		single[r] = time.Since(t).Seconds()

		var wg sync.WaitGroup
		t = time.Now()
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				spin(n)
			}()
		}
		wg.Wait()
		parallel[r] = time.Since(t).Seconds()
	}
	s, p := median(single), median(parallel)
	return s * 1e9 / n, float64(procs) * s / p
}
