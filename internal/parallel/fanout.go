package parallel

import "sync"

// Fanout runs indexed tasks on parallel goroutines and waits for them.
// It is the one goroutine fan-out of the partitioned engines: the
// PNDCA and type-partitioned chunk sweeps and the DDRSM strips. Every
// index launches through a method value bound once, so a launch hands
// the scheduler a zero-argument funcval and allocates nothing, where
// `go task(i)` would heap-allocate a wrapper closure per launch.
type Fanout struct {
	task func(i int)
	runs []func() // runs[i] launches task(i), bound once
	wg   sync.WaitGroup
}

// fanSlot binds one task index to its fan-out.
type fanSlot struct {
	f *Fanout
	i int
}

// NewFanout returns a fan-out over task. The caller binds task once
// (typically a method value), so Run allocates nothing.
func NewFanout(task func(i int)) *Fanout { return &Fanout{task: task} }

// Run calls task(0), …, task(n-1) and returns once all have finished.
// With n == 1 the task runs inline on the caller. Calls must not
// overlap: the launchers share one WaitGroup.
//
//surflint:hotpath
func (f *Fanout) Run(n int) {
	if n == 1 {
		f.task(0)
		return
	}
	if len(f.runs) < n {
		f.bind(n)
	}
	f.wg.Add(n)
	for _, run := range f.runs[:n] {
		// The engine packages' one goroutine launch: one per task per
		// call, amortised over the task's whole range of sites, and
		// run is bound once, so the launch itself does not allocate.
		//surflint:allow hotpath
		go run()
	}
	f.wg.Wait()
}

// bind builds the launchers for n tasks. It allocates only when Run
// first sees a task count larger than any before.
func (f *Fanout) bind(n int) {
	slots := make([]fanSlot, n)
	f.runs = make([]func(), n)
	for i := range slots {
		slots[i] = fanSlot{f: f, i: i}
		f.runs[i] = slots[i].run
	}
}

//surflint:hotpath
func (s *fanSlot) run() {
	s.f.task(s.i)
	s.f.wg.Done()
}
