package main

import (
	"fmt"
	"io"

	"parsurf"
	"parsurf/internal/ca"
	"parsurf/internal/lattice"
	"parsurf/internal/trace"
)

// table1 returns the CO-oxidation model whose reaction types are the
// rows of the paper's Table I.
func table1() *parsurf.Model { return parsurf.NewZGBModel(parsurf.DefaultZGBRates()) }

func runTable1(w io.Writer, opt options) error {
	m := table1()
	rows := make([][]string, 0, len(m.Types))
	for i := range m.Types {
		rt := &m.Types[i]
		pattern := ""
		for j, tr := range rt.Triples {
			if j > 0 {
				pattern += ", "
			}
			pattern += fmt.Sprintf("(s+%v: %s→%s)", tr.Off,
				m.Species[tr.Src], m.Species[tr.Tgt])
		}
		rows = append(rows, []string{rt.Name, fmt.Sprintf("%.3g", rt.Rate), pattern})
	}
	fmt.Fprint(w, trace.Table([]string{"reaction type", "rate", "transformation"}, rows))
	fmt.Fprintf(w, "total rate K = %.3f over %d types (Table I has 7)\n", m.K(), len(m.Types))
	fmt.Fprintln(w, "note: Table I's fourth RtCO+O row prints src CO for the second site;")
	fmt.Fprintln(w, "      implemented as O per the text and Fig. 5 (paper typo).")
	return nil
}

// table2 splits the CO-oxidation model's reaction types into the
// subsets T0/T1 of Table II on a side×side lattice and verifies the
// per-type non-overlap of each subset's checkerboard.
func table2(side int) (*parsurf.TypeSplit, error) {
	ts, err := parsurf.SplitByDirection(table1(), parsurf.NewSquareLattice(side))
	if err != nil {
		return nil, err
	}
	if err := ts.Verify(); err != nil {
		return nil, fmt.Errorf("split failed verification: %w", err)
	}
	return ts, nil
}

func runTable2(w io.Writer, opt options) error {
	ts, err := table2(10)
	if err != nil {
		return err
	}
	m := table1()
	for j, subset := range ts.Subsets {
		fmt.Fprintf(w, "T%d (K_T%d = %.3f):", j, j, ts.SubsetRates[j])
		for _, i := range subset {
			fmt.Fprintf(w, "  %s", m.Types[i].Name)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "site partition per subset: %d checkerboard chunks; per-type non-overlap verified\n",
		ts.Partitions[0].NumChunks())
	return nil
}

// fig3 runs the 1-D block CA of Fig. 3 for steps steps from one initial
// row, once with a static tiling of 3-site blocks and once with the
// tiling shifted every step. A zero at a block edge is confined by the
// first and released by the second.
func fig3(steps int) (static, shifting [][]lattice.Species, err error) {
	initial := []lattice.Species{0, 1, 1, 1, 1, 1, 0, 1, 1}
	if static, err = ca.BCA1D(initial, 3, 0, steps); err != nil {
		return nil, nil, err
	}
	shifting, err = ca.BCA1D(initial, 3, 1, steps)
	return static, shifting, err
}

func runFig3(w io.Writer, opt options) error {
	static, shifting, err := fig3(4)
	if err != nil {
		return err
	}
	render := func(states [][]lattice.Species) {
		for step, st := range states {
			fmt.Fprintf(w, "  step %d: ", step)
			for _, v := range st {
				fmt.Fprintf(w, "%d ", v)
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintln(w, "static blocks of 3 (zeros cannot cross edges):")
	render(static)
	fmt.Fprintln(w, "shifting blocks (the Fig. 3 mechanism):")
	render(shifting)
	return nil
}

// printLabels prints the chunk of every site in the top cols×rows
// corner of p's lattice.
func printLabels(w io.Writer, p *parsurf.Partition, cols, rows int) {
	for y := 0; y < rows; y++ {
		fmt.Fprint(w, "  ")
		for x := 0; x < cols; x++ {
			fmt.Fprintf(w, "%d ", p.ChunkOf(p.Lat.Index(x, y)))
		}
		fmt.Fprintln(w)
	}
}

// fig4 returns the von Neumann partition of the 5×5 tile of Fig. 4 and
// of a side×side lattice, after verifying the non-overlap rule of the
// CO-oxidation model on the latter.
func fig4(side int) (tile, full *parsurf.Partition, err error) {
	if tile, err = parsurf.VonNeumann5(parsurf.NewSquareLattice(5)); err != nil {
		return nil, nil, err
	}
	if full, err = parsurf.VonNeumann5(parsurf.NewSquareLattice(side)); err != nil {
		return nil, nil, err
	}
	return tile, full, parsurf.VerifyNonOverlap(full, table1())
}

func runFig4(w io.Writer, opt options) error {
	tile, full, err := fig4(100)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "chunk labels of the 5x5 tile (colour = (x+3y) mod 5):")
	printLabels(w, tile, 5, 5)
	fmt.Fprintln(w, "non-overlap rule verified for the CO-oxidation model on 100x100")
	fmt.Fprintf(w, "chunks: %d of %d sites each — minimum for von Neumann patterns\n",
		full.NumChunks(), len(full.Chunks[0]))
	return nil
}

// fig6 returns the two-chunk checkerboard of a width-6 lattice (Fig. 6)
// and the all-types non-overlap verdict for the checkerboard on a
// side×side lattice, which the paper says fails. The per-type rule,
// which holds, is table2's verification.
func fig6(side int) (tile *parsurf.Partition, allTypes error, err error) {
	if tile, err = parsurf.Checkerboard(parsurf.NewLattice(6, 4)); err != nil {
		return nil, nil, err
	}
	board, err := parsurf.Checkerboard(parsurf.NewSquareLattice(side))
	if err != nil {
		return nil, nil, err
	}
	return tile, parsurf.VerifyNonOverlap(board, table1()), nil
}

func runFig6(w io.Writer, opt options) error {
	tile, allTypes, err := fig6(10)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "chunk labels on a width-6 lattice (site ids as in Fig. 6):")
	printLabels(w, tile, 6, 3)
	if allTypes == nil {
		return fmt.Errorf("checkerboard unexpectedly satisfies the all-types rule")
	}
	fmt.Fprintln(w, "all-types non-overlap: violated (expected — needs 5 chunks)")
	if _, err := table2(10); err != nil {
		return err
	}
	fmt.Fprintln(w, "per-type non-overlap within each T_j: verified (2 chunks suffice)")
	return nil
}
