package cluster

import (
	"testing"
	"testing/quick"

	"parsurf/internal/lattice"
	"parsurf/internal/rng"
)

func TestEmptyLattice(t *testing.T) {
	c := lattice.NewConfig(lattice.NewSquare(8))
	lb := SpeciesComponents(c, 1)
	if lb.NumClusters() != 0 || lb.LargestCluster() != 0 {
		t.Fatalf("clusters on empty lattice: %+v", lb)
	}
	for _, l := range lb.Label {
		if l != -1 {
			t.Fatal("label assigned to excluded site")
		}
	}
}

func TestSingleCluster(t *testing.T) {
	lat := lattice.NewSquare(8)
	c := lattice.NewConfig(lat)
	// An L-shaped pentomino.
	for _, xy := range [][2]int{{2, 2}, {2, 3}, {2, 4}, {3, 4}, {4, 4}} {
		c.SetXY(xy[0], xy[1], 1)
	}
	lb := SpeciesComponents(c, 1)
	if lb.NumClusters() != 1 {
		t.Fatalf("clusters = %d, want 1", lb.NumClusters())
	}
	if lb.Sizes[0] != 5 {
		t.Fatalf("size = %d", lb.Sizes[0])
	}
}

func TestDiagonalNotConnected(t *testing.T) {
	lat := lattice.NewSquare(8)
	c := lattice.NewConfig(lat)
	c.SetXY(1, 1, 1)
	c.SetXY(2, 2, 1)
	lb := SpeciesComponents(c, 1)
	if lb.NumClusters() != 2 {
		t.Fatalf("diagonal sites merged: %d clusters", lb.NumClusters())
	}
}

func TestPeriodicWrap(t *testing.T) {
	lat := lattice.NewSquare(6)
	c := lattice.NewConfig(lat)
	// A row crossing the x boundary.
	c.SetXY(5, 2, 1)
	c.SetXY(0, 2, 1)
	lb := SpeciesComponents(c, 1)
	if lb.NumClusters() != 1 {
		t.Fatalf("wrap-around bond missed: %d clusters", lb.NumClusters())
	}
	// And the y boundary.
	d := lattice.NewConfig(lat)
	d.SetXY(3, 5, 1)
	d.SetXY(3, 0, 1)
	if lb := SpeciesComponents(d, 1); lb.NumClusters() != 1 {
		t.Fatalf("y wrap missed: %d clusters", lb.NumClusters())
	}
}

func TestFullLatticeOneCluster(t *testing.T) {
	lat := lattice.NewSquare(10)
	c := lattice.NewConfig(lat)
	c.Fill(1)
	lb := SpeciesComponents(c, 1)
	if lb.NumClusters() != 1 || lb.Sizes[0] != 100 {
		t.Fatalf("full lattice: %+v", lb.Sizes)
	}
}

func TestCheckerboardAllSingletons(t *testing.T) {
	lat := lattice.NewSquare(8)
	c := lattice.NewConfig(lat)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if (x+y)%2 == 0 {
				c.SetXY(x, y, 1)
			}
		}
	}
	lb := SpeciesComponents(c, 1)
	if lb.NumClusters() != 32 {
		t.Fatalf("checkerboard: %d clusters, want 32", lb.NumClusters())
	}
	if lb.LargestCluster() != 1 {
		t.Fatal("checkerboard sites merged")
	}
}

func TestGroupComponents(t *testing.T) {
	lat := lattice.NewSquare(6)
	c := lattice.NewConfig(lat)
	c.SetXY(1, 1, 1)
	c.SetXY(2, 1, 2) // different species, adjacent
	lb := GroupComponents(c, 1, 2)
	if lb.NumClusters() != 1 || lb.Sizes[0] != 2 {
		t.Fatalf("group clustering failed: %+v", lb.Sizes)
	}
	if SpeciesComponents(c, 1).NumClusters() != 1 {
		t.Fatal("single species clustering changed")
	}
}

func TestSummarize(t *testing.T) {
	lat := lattice.NewSquare(6)
	c := lattice.NewConfig(lat)
	c.SetXY(0, 0, 1)
	c.SetXY(3, 3, 1)
	c.SetXY(3, 4, 1)
	st := Summarize(SpeciesComponents(c, 1))
	if st.Clusters != 2 || st.Sites != 3 || st.Largest != 2 || st.MeanSize != 1.5 {
		t.Fatalf("stats %+v", st)
	}
	empty := Summarize(SpeciesComponents(lattice.NewConfig(lat), 1))
	if empty.Clusters != 0 || empty.MeanSize != 0 {
		t.Fatalf("empty stats %+v", empty)
	}
}

// Property: total labelled sites equals the species count, and labels
// are consistent (same label ⟺ reachable; checked via size bookkeeping
// and bond-consistency).
func TestQuickLabellingConsistent(t *testing.T) {
	lat := lattice.NewSquare(12)
	f := func(seed uint64) bool {
		c := lattice.NewConfig(lat)
		src := rng.New(seed)
		c.Randomize([]float64{0.5, 0.5}, src.Float64)
		lb := SpeciesComponents(c, 1)
		total := 0
		for _, s := range lb.Sizes {
			if s <= 0 {
				return false
			}
			total += s
		}
		if total != c.Count(1) {
			return false
		}
		// Every bond between included sites joins equal labels.
		for s := 0; s < lat.N(); s++ {
			if c.Get(s) != 1 {
				continue
			}
			for _, d := range []lattice.Vec{{DX: 1}, {DY: 1}} {
				t2 := lat.Translate(s, d)
				if c.Get(t2) == 1 && lb.Label[s] != lb.Label[t2] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkComponents(b *testing.B) {
	lat := lattice.NewSquare(256)
	c := lattice.NewConfig(lat)
	src := rng.New(1)
	c.Randomize([]float64{0.4, 0.6}, src.Float64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SpeciesComponents(c, 1)
	}
}
