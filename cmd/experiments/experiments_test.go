package main

import (
	"bytes"
	"context"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"parsurf/internal/lattice"
	"parsurf/internal/stats"
	"parsurf/internal/ziff"
)

// TestQuickOutputMatchesGolden runs the printers of the fast
// subcommands as experiments -quick does and compares their output byte
// for byte with testdata/<name>.golden, so a refactor cannot move a
// printed number. To re-pin after an intended change:
//
//	go run ./cmd/experiments -quick <name> > cmd/experiments/testdata/<name>.golden
func TestQuickOutputMatchesGolden(t *testing.T) {
	opt := options{quick: true, seed: 1, ctx: context.Background()}
	for _, name := range []string{"table1", "table2", "fig3", "fig4", "fig6", "fig7", "criteria", "ziff"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			i := slices.IndexFunc(experiments, func(e experiment) bool { return e.name == name })
			if i < 0 {
				t.Fatalf("no experiment %q", name)
			}
			var got bytes.Buffer
			if err := runExperiment(&got, experiments[i], opt); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from testdata/%s.golden:\n--- got\n%s--- want\n%s", name, got.Bytes(), want)
			}
		})
	}
}

// TestIndexListsEveryExperiment checks that the experiment index in the
// package doc lists exactly the subcommands of the experiments table,
// plus "all", in the same order.
func TestIndexListsEveryExperiment(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.PackageClauseOnly|parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(f.Doc.Text(), "is one of:\n")
	if !ok {
		t.Fatal("package doc has no experiment index")
	}
	var listed []string
	for _, line := range strings.Split(strings.TrimLeft(index, "\n"), "\n") {
		if !strings.HasPrefix(line, "\t") {
			break
		}
		listed = append(listed, strings.Fields(line)[0])
	}
	var want []string
	for _, e := range experiments {
		want = append(want, e.name)
	}
	want = append(want, "all")
	if !slices.Equal(listed, want) {
		t.Errorf("doc index lists %q, experiments table has %q", listed, want)
	}
}

func TestTable1(t *testing.T) {
	m := table1()
	if len(m.Types) != 7 {
		t.Fatalf("%d reaction types, Table I has 7", len(m.Types))
	}
	var reactions []int
	for i, rt := range m.Types {
		if strings.HasPrefix(rt.Name, "RtCO+O") {
			reactions = append(reactions, i)
		}
	}
	if len(reactions) != 4 {
		t.Fatalf("%d RtCO+O rows, want 4", len(reactions))
	}
	// The paper's table prints CO here; the text and Fig. 5 say O.
	fourth := m.Types[reactions[3]]
	if src := m.Species[fourth.Triples[1].Src]; src != "O" {
		t.Errorf("%s consumes %s on its second site, want O", fourth.Name, src)
	}
}

func TestTable2Fig4Fig6Verify(t *testing.T) {
	// table2 verifies the per-type rule on each subset's checkerboard.
	ts, err := table2(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.Subsets) != 2 || ts.Partitions[0].NumChunks() != 2 {
		t.Errorf("%d subsets, %d chunks; Table II has 2 and 2", len(ts.Subsets), ts.Partitions[0].NumChunks())
	}

	tile, full, err := fig4(10)
	if err != nil {
		t.Fatal(err)
	}
	for y := range 5 {
		for x := range 5 {
			if c := tile.ChunkOf(tile.Lat.Index(x, y)); c != (x+3*y)%5 {
				t.Errorf("tile (%d,%d) in chunk %d, want (x+3y) mod 5 = %d", x, y, c, (x+3*y)%5)
			}
		}
	}
	if full.NumChunks() != 5 {
		t.Errorf("%d chunks, Fig. 4 has 5", full.NumChunks())
	}
	for _, c := range full.Chunks {
		if len(c) != 20 {
			t.Errorf("chunk of %d sites, want 100/5", len(c))
		}
	}

	board, allTypes, err := fig6(10)
	if err != nil {
		t.Fatal(err)
	}
	for y := range 3 {
		for x := range 6 {
			if c := board.ChunkOf(board.Lat.Index(x, y)); c != (x+y)%2 {
				t.Errorf("site (%d,%d) in chunk %d, want the checkerboard's %d", x, y, c, (x+y)%2)
			}
		}
	}
	if allTypes == nil {
		t.Error("the checkerboard passes the all-types rule; the paper needs 5 chunks for it")
	}
}

func TestFig3ShiftingReleasesZeros(t *testing.T) {
	static, shifting, err := fig3(4)
	if err != nil {
		t.Fatal(err)
	}
	// The static tiling never lets a zero into the middle block.
	for step, st := range static {
		if st[3] != 1 || st[4] != 1 || st[5] != 1 {
			t.Errorf("static step %d: %v, the middle block must stay 1 1 1", step, st)
		}
	}
	if last := shifting[4]; slices.ContainsFunc(last, func(v lattice.Species) bool { return v != 0 }) {
		t.Errorf("shifting step 4: %v, want every site 0", last)
	}
}

func TestFig7(t *testing.T) {
	sides, workers := []int{200, 600, 1000}, []int{2, 6, 10}
	surface, same, dd, err := fig7(context.Background(), sides, workers, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	for pi, p := range workers {
		for si := 1; si < len(sides); si++ {
			if surface[si][pi] <= surface[si-1][pi] {
				t.Errorf("p=%d: speedup %v at N=%d² not above %v at N=%d²",
					p, surface[si][pi], sides[si], surface[si-1][pi], sides[si-1])
			}
		}
	}
	if !same {
		t.Error("8 pndca workers end in another configuration than 1")
	}
	for i := 1; i < len(dd); i++ {
		if dd[i].boundary <= dd[i-1].boundary {
			t.Errorf("boundary trials/step %d at p=%d not above %d at p=%d",
				dd[i].boundary, dd[i].p, dd[i-1].boundary, dd[i-1].p)
		}
	}
}

// oscTestSetup is the reduced Figs. 8–10 size: 10×10 to t=20. The
// L-PNDCA limit cases are bit-identical to RSM at any size.
func oscTestSetup() *oscSetup { return newOscSetup(context.Background(), 10, 20, 1) }

func TestFig8LimitsBitEqualRSM(t *testing.T) {
	s := oscTestSetup()
	runs, err := fig8(s)
	if err != nil {
		t.Fatal(err)
	}
	ref := runs[0]
	for _, r := range runs[1:] {
		if !r.final.Equal(ref.final) {
			t.Errorf("%s: final configuration differs from RSM", r.label)
		}
		if d := stats.RMSD(ref.co, r.co, s.tEnd/4, s.tEnd, 400); d != 0 {
			t.Errorf("%s: RMSD vs RSM %v, want 0", r.label, d)
		}
	}
}

// TestFig9Fig10RunOnGrid checks only that the figures run and sample
// finite coverages on the grid. Their orderings (L=1 beats L=100;
// random order keeps the oscillation) do not hold for single
// trajectories at a size a unit test can afford, so they are left to
// an ensemble check.
func TestFig9Fig10RunOnGrid(t *testing.T) {
	s := oscTestSetup()
	runs9, err := fig9(s)
	if err != nil {
		t.Fatal(err)
	}
	l, runs10, err := fig10(s)
	if err != nil {
		t.Fatal(err)
	}
	if l != 20 {
		t.Errorf("fig10 L = %d, want N/m = 100/5", l)
	}
	points := int(s.tEnd/s.dt) + 1
	for _, r := range append(runs9, runs10...) {
		if r.co.Len() != points {
			t.Errorf("%s: %d samples, want %d", r.label, r.co.Len(), points)
			continue
		}
		for k, x := range r.co.X {
			if math.IsNaN(x) || x < 0 || x > 1 || r.co.T[k] < float64(k)*s.dt {
				t.Errorf("%s: sample %d is (%v, %v)", r.label, k, r.co.T[k], x)
				break
			}
		}
	}
}

func TestCriteriaPassAtDefaultSeed(t *testing.T) {
	res, err := criteria(4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.ksPass {
		t.Errorf("criterion 1 fails: KS p-value %v", res.ksP)
	}
	for _, r := range res.ratio {
		if !r.pass {
			t.Errorf("criterion 2 fails for %s: chi2 %v, counts %v", r.engine, r.chi2, r.counts)
		}
	}
}

// TestZiffTransitionsInBands runs the -quick sweep (32², 200+60 MCS, 2
// replicas, y step 0.02) and checks that it brackets both transitions
// near the published y1 ≈ 0.39 and y2 ≈ 0.525 (Ziff, Gulari & Barshad,
// PRL 56, 2553, 1986). At this size seeds 1–5 give y1 = 0.350–0.370 and
// y2 = 0.530–0.550. y1 reads low because near it the surface O-poisons
// slowly: a point still at θ_O ≈ 0.98 at the 260-MCS horizon counts as
// reactive, since ziff.Transitions needs θ_O > 0.99. With 4000 MCS of
// relaxation and a y step of 0.01, the same lattice gives y1 = 0.395 and
// y2 = 0.525 at seeds 1–3. So the band for y1 reaches further below the
// literature value than above it.
func TestZiffTransitionsInBands(t *testing.T) {
	points, err := ziffSweep(context.Background(), ziffSize{l: 32, equil: 200, measure: 60, replicas: 2, step: 0.02}, 1)
	if err != nil {
		t.Fatal(err)
	}
	y1, y2, ok := ziff.Transitions(points)
	if !ok {
		t.Fatalf("transitions not bracketed: %+v", points)
	}
	if y1 < 0.33 || y1 > 0.41 {
		t.Errorf("y1 = %.3f, want in [0.33, 0.41] (literature 0.39)", y1)
	}
	if y2 < 0.50 || y2 > 0.56 {
		t.Errorf("y2 = %.3f, want in [0.50, 0.56] (literature 0.525)", y2)
	}
}
