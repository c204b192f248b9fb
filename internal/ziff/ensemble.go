package ziff

import "parsurf/internal/stats"

// ReplicaLedger is one ensemble replica's CO2 bookkeeping: the
// cumulative count at the equilibration boundary and at the horizon,
// plus whether the replica froze in a poisoned state. Callers fill one
// ledger per replica from a per-grid-point observer (each slot written
// only by its own replica's goroutine).
type ReplicaLedger struct {
	CO2Equil, CO2End uint64
	Poisoned         bool
}

// Record samples the ledger from a live simulation at grid time t: the
// CO2 count keeps updating CO2Equil while t is still inside the
// equilibration window, and the latest count and poisoning flag always
// land in CO2End/Poisoned. The experiments ziff sweep calls this from
// its per-replica observer, so the window-boundary rule lives in
// exactly one place.
func (led *ReplicaLedger) Record(z *ZGB, t float64, equil int) {
	if t <= float64(equil) {
		led.CO2Equil = z.CO2Count()
	}
	led.CO2End = z.CO2Count()
	led.Poisoned = z.Poisoned()
}

// WindowMean time-averages a grid series over the measurement window
// (equil, horizon] — the same window Record's equilibration boundary
// defines. Zero for a series with no samples past the boundary.
func WindowMean(s *stats.Series, equil int) float64 {
	sum, n := 0.0, 0
	for k, t := range s.T {
		if t <= float64(equil) {
			continue
		}
		sum += s.X[k]
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// EnsemblePoint reduces one ensemble's merged mean coverage series
// (indexed by the package species constants, on a shared time grid)
// and its per-replica CO2 ledgers to a phase-diagram point: coverages
// are time-averaged over the measurement window (equil, horizon], the
// CO2 rate is the window production per site per MCS averaged across
// replicas, and the point counts as poisoned when at least half the
// replicas froze. The window and rate conventions live here, next to
// Record's window boundary, so the two cannot drift apart.
func EnsemblePoint(y float64, mean []*stats.Series, equil, measure int, sites float64, ledgers []ReplicaLedger) PhasePoint {
	pt := PhasePoint{
		Y:       y,
		CoEmpty: WindowMean(mean[Empty], equil),
		CoCO:    WindowMean(mean[CO], equil),
		CoO:     WindowMean(mean[O], equil),
	}
	produced, poisoned := 0.0, 0
	for _, led := range ledgers {
		produced += float64(led.CO2End - led.CO2Equil)
		if led.Poisoned {
			poisoned++
		}
	}
	if n := len(ledgers); n > 0 {
		pt.Rate = produced / float64(n) / float64(measure) / sites
		pt.Poisoned = 2*poisoned >= n
	}
	return pt
}
