// Package ensemble orchestrates replicated simulation runs: a
// worker-pool runner with first-error sibling cancellation, and a
// streaming moment accumulator that merges members in index order for
// worker-count-independent results. Replicas sample on the shared
// internal/timegrid grid, and the merge takes its point count from the
// same grid, so the two can never disagree on grid size or placement.
//
// The package is deliberately engine-agnostic: jobs are opaque
// functions and samples are plain float64 grids, so the facade owns all
// session wiring while the concurrency and float discipline live here.
package ensemble

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic recovered from one job's goroutine, converted
// into a first-class error so it flows through the normal first-error
// cancellation instead of crashing the process. Value is the recovered
// panic value; Stack is the goroutine stack captured at recovery time,
// so the failure stays diagnosable after the goroutine is gone. Match
// with errors.As.
type PanicError struct {
	Job   int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("ensemble: job %d panicked: %v\n%s", e.Job, e.Value, e.Stack)
}

// runSafe invokes run(ctx, i), converting a panic into a *PanicError.
// The conversion is deliberate containment, not suppression: the panic
// becomes the job's error, cancels the siblings, and surfaces from Run
// with its full stack — while the worker pool and the process live on.
func runSafe(ctx context.Context, i int, run func(ctx context.Context, job int) error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Job: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return run(ctx, i)
}

// Run executes jobs 0..jobs-1 over a pool of `workers` goroutines and
// returns the root-cause error of the first failure, cancelling every
// sibling as soon as one job fails:
//
//   - the run context handed to each job is cancelled on the first
//     recorded failure, so in-flight siblings abort at their next
//     context check (one engine step for the simulation runners);
//   - the job queue stops feeding: enqueueing selects on cancellation,
//     so the producer can never block forever on workers that have
//     stopped making progress, and already-queued jobs are drained
//     without running;
//   - the error returned is the failure itself — the lowest-indexed
//     non-cancellation error — never a sibling's induced
//     context.Canceled.
//
// A nil return means every job ran and returned nil. Cancellation of
// the caller's ctx surfaces as ctx.Err() unless a real job failure is
// the better explanation.
//
// A panic inside run is contained: the worker recovers it into a
// *PanicError carrying the stack, which cancels the siblings and is
// returned like any other failure — one buggy job never takes down the
// pool or the process.
func Run(ctx context.Context, jobs, workers int, run func(ctx context.Context, job int) error) error {
	if jobs <= 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > jobs {
		workers = jobs
	}
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, jobs)
	var completed atomic.Int64
	queue := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				if err := runCtx.Err(); err != nil {
					errs[i] = err // drained after the abort, never ran
					continue
				}
				if err := runSafe(runCtx, i, run); err != nil {
					errs[i] = err
					cancel() // first failure aborts the siblings
				} else {
					completed.Add(1)
				}
			}
		}()
	}
enqueue:
	for i := 0; i < jobs; i++ {
		select {
		case queue <- i:
		case <-runCtx.Done():
			break enqueue
		}
	}
	close(queue)
	wg.Wait()
	return rootCause(ctx, int(completed.Load()) == jobs, errs)
}

// rootCause picks the error Run reports: the lowest-indexed real
// failure wins; induced cancellations (siblings aborted after the
// first failure) are only reported when nothing explains them — and
// then the caller's own ctx error takes precedence, since that is what
// triggered them. allCompleted distinguishes "every job ran and
// succeeded" (a cancellation landing after that changes nothing — the
// result is complete) from "jobs were skipped or aborted" (a
// pre-cancelled ctx must surface even though no job recorded an
// error).
func rootCause(ctx context.Context, allCompleted bool, errs []error) error {
	var induced error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if induced == nil {
				induced = err
			}
			continue
		}
		return err
	}
	if allCompleted {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	return induced
}
