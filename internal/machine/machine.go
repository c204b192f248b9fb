// Package machine is the simulated parallel computer used to regenerate
// the paper's Fig. 7 speedup surface on a host without the paper's
// parallel hardware.
//
// The model charges virtual time for the *actual* work decomposition of
// the partitioned algorithms: every site trial costs TTrial, every
// chunk sweep ends in a barrier costing TBarrier, distributing a sweep
// to p workers costs TSpawn per worker, and every boundary message of
// the domain-decomposition baseline costs TMsg. Workers within a sweep
// run concurrently, so a sweep's compute time is the maximum over the
// worker segments. Speedup is T(1,N)/T(p,N), exactly the paper's
// definition. Only the four hardware constants are synthetic; the work
// counts come from the real partitions and engines.
package machine

import (
	"fmt"

	"parsurf/internal/partition"
)

// Model holds the virtual hardware constants, all in seconds.
type Model struct {
	// TTrial is the cost of one site trial (selection, enabledness
	// check, execution).
	TTrial float64
	// TBarrier is the cost of one synchronisation barrier.
	TBarrier float64
	// TSpawn is the per-worker cost of distributing a sweep.
	TSpawn float64
	// TMsg is the cost of one boundary message (domain decomposition).
	TMsg float64
}

// Default returns constants calibrated to the paper's 2002-era setting:
// a site trial around a microsecond, cluster barriers in the low
// milliseconds, per-worker distribution cost of ~100 µs. With these the
// modeled Fig. 7 surface peaks near speedup 8 at p=10 on a 1000×1000
// lattice and stays near 1–2 on a 200×200 lattice, matching the paper's
// plot. Substitute measured constants (e.g. this host's ~50 ns/trial)
// to model modern hardware.
func Default() Model {
	return Model{
		TTrial:   1e-6,
		TBarrier: 3e-3,
		TSpawn:   100e-6,
		TMsg:     10e-6,
	}
}

// PNDCAStepTime returns the modeled wall time of one PNDCA step (every
// chunk swept once) on p workers: per chunk, the slowest worker segment
// plus the distribution and barrier costs.
func (m Model) PNDCAStepTime(part *partition.Partition, p int) float64 {
	if p < 1 {
		panic(fmt.Sprintf("machine: non-positive worker count %d", p))
	}
	total := 0.0
	for _, chunk := range part.Chunks {
		seg := ceilDiv(len(chunk), p)
		total += float64(seg) * m.TTrial
		if p > 1 {
			total += m.TBarrier + float64(p)*m.TSpawn
		}
	}
	return total
}

// PNDCASpeedup returns T(1,N)/T(p,N) for one PNDCA step over the given
// partition — the quantity of the paper's Fig. 7.
func (m Model) PNDCASpeedup(part *partition.Partition, p int) float64 {
	return m.PNDCAStepTime(part, 1) / m.PNDCAStepTime(part, p)
}

// DDRSMStepTime returns the modeled wall time of one windowed
// domain-decomposition RSM step on p strips: the slowest strip's
// interior trials, two barriers, and the sequential boundary phase whose
// trials each cost a message plus a trial.
//
// interiorTrials and boundaryTrials are the measured per-step counts
// (e.g. from parallel.DDRSM: Trials−Deferred and Deferred).
func (m Model) DDRSMStepTime(interiorTrials, boundaryTrials uint64, p int) float64 {
	if p < 1 {
		panic(fmt.Sprintf("machine: non-positive worker count %d", p))
	}
	perWorker := ceilDiv(int(interiorTrials), p)
	t := float64(perWorker) * m.TTrial
	if p > 1 {
		t += 2*m.TBarrier + float64(p)*m.TSpawn
		t += float64(boundaryTrials) * (m.TTrial + m.TMsg)
	} else {
		t += float64(boundaryTrials) * m.TTrial
	}
	return t
}

// SpeedupSurface evaluates PNDCA speedup for every combination of
// lattice side and worker count, using the canonical five-chunk
// partition (each chunk N/5 sites). Sides not divisible by 5 are
// rejected. The result is indexed [si][pi].
func (m Model) SpeedupSurface(sides []int, workers []int) ([][]float64, error) {
	out := make([][]float64, len(sides))
	for si, side := range sides {
		if side%5 != 0 {
			return nil, fmt.Errorf("machine: side %d not divisible by 5", side)
		}
		// The speedup depends only on the chunk sizes; synthesise the
		// five-chunk layout without materialising a lattice.
		n := side * side
		chunk := n / 5
		t1 := 5 * float64(chunk) * m.TTrial
		out[si] = make([]float64, len(workers))
		for pi, p := range workers {
			if p < 1 {
				return nil, fmt.Errorf("machine: worker count %d", p)
			}
			seg := ceilDiv(chunk, p)
			tp := 5 * float64(seg) * m.TTrial
			if p > 1 {
				tp += 5 * (m.TBarrier + float64(p)*m.TSpawn)
			}
			out[si][pi] = t1 / tp
		}
	}
	return out, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
