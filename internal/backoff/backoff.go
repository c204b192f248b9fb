// Package backoff is the repo's single retry-delay policy: truncated
// exponential growth with full jitter. Every retry loop that talks to
// something unreliable — the job manager re-queueing a crash-recovered
// job, fleet workers re-leasing from a restarting coordinator,
// heartbeat and upload retries — draws its sleep from here, so the
// shape of "back off" is defined once and tuned once.
//
// This package is service plumbing, not engine code: the jitter draws
// from math/rand/v2 (not parsurf/internal/rng) because retry timing is
// deliberately *not* part of any deterministic trajectory.
package backoff

import (
	"math/rand/v2"
	"time"
)

// Policy describes one truncated-exponential-with-jitter schedule.
// The zero value never waits; set Base, Max and Jitter.
type Policy struct {
	// Base is the cap for the first attempt's delay.
	Base time.Duration
	// Max truncates the exponential growth.
	Max time.Duration
	// Jitter selects the delay distribution: with jitter, attempt n
	// draws uniformly from (0, min(Max, Base<<n)] so a fleet of workers
	// hammering a restarted coordinator decorrelates; without it the
	// delay is exactly min(Max, Base<<n) — deterministic, which the job
	// manager's crash-recovery tests pin.
	Jitter bool
}

// Delay returns the sleep before retry attempt n (0-based: n=0 is the
// delay after the first failure). Non-positive Base yields zero.
func (p Policy) Delay(n int) time.Duration {
	if p.Base <= 0 {
		return 0
	}
	d := p.Base
	for i := 0; i < n; i++ {
		d *= 2
		if p.Max > 0 && d >= p.Max {
			d = p.Max
			break
		}
	}
	if p.Max > 0 && d > p.Max {
		d = p.Max
	}
	if !p.Jitter {
		return d
	}
	// Full jitter: uniform over (0, d]. Never zero, so a retry loop
	// always yields the scheduler even at Base.
	return time.Duration(rand.Int64N(int64(d))) + 1
}

// Sleep blocks for Delay(n) or until done is closed/cancelled,
// reporting false when it was cut short. A nil done never interrupts.
func (p Policy) Sleep(n int, done <-chan struct{}) bool {
	d := p.Delay(n)
	if d <= 0 {
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-done:
		return false
	}
}
