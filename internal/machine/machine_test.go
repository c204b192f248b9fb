package machine

import (
	"testing"

	"parsurf/internal/lattice"
	"parsurf/internal/partition"
)

func TestPNDCAStepTimeSequential(t *testing.T) {
	lat := lattice.NewSquare(10)
	part, err := partition.VonNeumann5(lat)
	if err != nil {
		t.Fatal(err)
	}
	m := Model{TTrial: 1, TBarrier: 100, TSpawn: 10}
	// p=1: no barriers, no spawn; 100 trials.
	if got := m.PNDCAStepTime(part, 1); got != 100 {
		t.Fatalf("T(1) = %v, want 100", got)
	}
	// p=2: five chunks of 20 -> 10 trials each, plus 5 barriers and
	// 5·2 spawns.
	want := 5.0*10 + 5*(100+2*10)
	if got := m.PNDCAStepTime(part, 2); got != want {
		t.Fatalf("T(2) = %v, want %v", got, want)
	}
}

func TestPNDCASpeedupMonotoneInN(t *testing.T) {
	m := Default()
	sides := []int{200, 500, 1000}
	surface, err := m.SpeedupSurface(sides, []int{10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sides); i++ {
		if surface[i][0] <= surface[i-1][0] {
			t.Fatalf("speedup at p=10 not increasing with N: %v", surface)
		}
	}
}

func TestSpeedupSurfaceShapeMatchesFig7(t *testing.T) {
	// Fig. 7 shape: near-linear speedup for the largest system, clearly
	// sub-linear for the smallest; speedup at N=1000² and p=10 around
	// 8 (paper's peak).
	m := Default()
	sides := []int{200, 1000}
	workers := []int{2, 10}
	s, err := m.SpeedupSurface(sides, workers)
	if err != nil {
		t.Fatal(err)
	}
	if s[1][1] < 6 || s[1][1] > 10 {
		t.Fatalf("speedup(1000, 10) = %v, want ~8", s[1][1])
	}
	if s[0][1] >= s[1][1] {
		t.Fatalf("small system should speed up less: %v", s)
	}
	if s[0][0] <= 1 {
		t.Fatalf("p=2 should still beat sequential on N=200²: %v", s[0][0])
	}
}

// TestSpeedupSurfaceMatchesPNDCASpeedup ties the synthesised surface to
// the partition-driven formula: both must give the same number, bit for
// bit, on a real five-chunk partition.
func TestSpeedupSurfaceMatchesPNDCASpeedup(t *testing.T) {
	m := Default()
	sides := []int{20, 50, 100}
	workers := []int{1, 2, 3, 7, 10}
	surface, err := m.SpeedupSurface(sides, workers)
	if err != nil {
		t.Fatal(err)
	}
	for si, side := range sides {
		part, err := partition.VonNeumann5(lattice.NewSquare(side))
		if err != nil {
			t.Fatal(err)
		}
		for pi, p := range workers {
			if got, want := surface[si][pi], m.PNDCASpeedup(part, p); got != want {
				t.Errorf("side %d, p=%d: SpeedupSurface %v, PNDCASpeedup %v", side, p, got, want)
			}
		}
	}
}

func TestSpeedupAtP1IsOne(t *testing.T) {
	m := Default()
	lat := lattice.NewSquare(20)
	part, err := partition.VonNeumann5(lat)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.PNDCASpeedup(part, 1); got != 1 {
		t.Fatalf("speedup(p=1) = %v", got)
	}
}

func TestSpeedupSaturatesForSmallSystems(t *testing.T) {
	// For a tiny lattice the barrier dominates: more workers must not
	// keep helping forever.
	m := Default()
	s, err := m.SpeedupSurface([]int{50}, []int{2, 4, 8, 16, 32})
	if err != nil {
		t.Fatal(err)
	}
	last := s[0][len(s[0])-1]
	peak := 0.0
	for _, v := range s[0] {
		if v > peak {
			peak = v
		}
	}
	if last >= peak {
		t.Fatalf("tiny system speedup should decline past its peak: %v", s[0])
	}
}

func TestDDRSMStepTime(t *testing.T) {
	m := Model{TTrial: 1, TBarrier: 50, TSpawn: 5, TMsg: 2}
	// Sequential: all trials cost TTrial.
	if got := m.DDRSMStepTime(900, 100, 1); got != 1000 {
		t.Fatalf("T(1) = %v", got)
	}
	// p=4: 225 interior each, 2 barriers, 4 spawns, boundary trials at
	// TTrial+TMsg.
	want := 225.0 + 2*50 + 4*5 + 100*(1+2)
	if got := m.DDRSMStepTime(900, 100, 4); got != want {
		t.Fatalf("T(4) = %v, want %v", got, want)
	}
}

func TestDDRSMVsPNDCAOverhead(t *testing.T) {
	// The paper's motivation: for the same work, the boundary-messaging
	// decomposition pays more overhead than the partition approach.
	m := Default()
	lat := lattice.NewSquare(100)
	part, err := partition.VonNeumann5(lat)
	if err != nil {
		t.Fatal(err)
	}
	p := 8
	tPNDCA := m.PNDCAStepTime(part, p)
	// A 100×100 lattice split into 8 strips: radius-1 patterns defer
	// roughly the trials landing in 2 boundary rows per strip:
	// 8 strips × 2 rows × 100 sites / (total 10000) of N trials.
	boundary := uint64(8 * 2 * 100)
	interior := uint64(lat.N()) - boundary
	tDD := m.DDRSMStepTime(interior, boundary, p)
	if tDD <= tPNDCA {
		t.Fatalf("expected DDRSM overhead above PNDCA: %v <= %v", tDD, tPNDCA)
	}
}

func TestPanics(t *testing.T) {
	m := Default()
	lat := lattice.NewSquare(10)
	part, _ := partition.VonNeumann5(lat)
	for _, f := range []func(){
		func() { m.PNDCAStepTime(part, 0) },
		func() { m.DDRSMStepTime(10, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
	if _, err := m.SpeedupSurface([]int{7}, []int{2}); err == nil {
		t.Error("accepted side not divisible by 5")
	}
	if _, err := m.SpeedupSurface([]int{10}, []int{0}); err == nil {
		t.Error("accepted zero workers")
	}
}
