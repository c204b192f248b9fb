// Command experiments regenerates every table and figure of the paper's
// evaluation; the list below is the experiment index.
//
// Usage:
//
//	experiments [-quick] [-seed N] <experiment>
//
// where <experiment> is one of:
//
//	table1   reaction types of the CO-oxidation model (Table I)
//	table2   reaction-type subsets T0/T1 (Table II)
//	fig3     1-D block CA with shifting boundaries (Fig. 3)
//	fig4     the five-chunk von Neumann partition (Fig. 4)
//	fig6     the two-chunk checkerboard for Ω×T (Fig. 6)
//	fig7     PNDCA speedup surface on the simulated machine (Fig. 7)
//	fig8     RSM ≡ L-PNDCA at the limit parameters (Fig. 8)
//	fig9     five chunks, L=1 vs L=100 (Fig. 9)
//	fig10    random chunk order once per step, L=N/m (Fig. 10)
//	ziff     ZGB phase diagram (§1 "experimental data for Ziff model")
//	criteria Segers correctness criteria for the exact DMC engines (§6)
//	all      run everything above in order
//
// Each experiment is a function that computes the figure's numbers and
// a printer on top of it; go test ./cmd/experiments runs every one at a
// reduced size, asserts the paper's claims on the numbers and compares
// the fast printers' -quick output with testdata/<name>.golden.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
)

type options struct {
	quick bool
	seed  uint64
	ctx   context.Context
}

type experiment struct {
	name string
	desc string
	run  func(w io.Writer, opt options) error
}

var experiments = []experiment{
	{"table1", "Table I: ZGB reaction types", runTable1},
	{"table2", "Table II: reaction-type subsets", runTable2},
	{"fig3", "Fig. 3: 1-D BCA with shifting blocks", runFig3},
	{"fig4", "Fig. 4: five-chunk partition", runFig4},
	{"fig6", "Fig. 6: checkerboard for Ω×T", runFig6},
	{"fig7", "Fig. 7: PNDCA speedup surface", runFig7},
	{"fig8", "Fig. 8: L-PNDCA limits match RSM", runFig8},
	{"fig9", "Fig. 9: L=1 vs L=100 accuracy", runFig9},
	{"fig10", "Fig. 10: random order preserves oscillations", runFig10},
	{"ziff", "ZGB phase diagram", runZiff},
	{"criteria", "Segers correctness criteria (§6)", runCriteria},
}

// runExperiment writes e's banner, its output and a blank line to w.
func runExperiment(w io.Writer, e experiment, opt options) error {
	fmt.Fprintf(w, "==== %s — %s ====\n", e.name, e.desc)
	if err := e.run(w, opt); err != nil {
		return fmt.Errorf("experiments %s: %w", e.name, err)
	}
	fmt.Fprintln(w)
	return nil
}

func main() {
	quick := flag.Bool("quick", false, "reduced sizes and spans (fast smoke run)")
	seed := flag.Uint64("seed", 1, "base random seed")
	flag.Parse()
	opt := options{quick: *quick, seed: *seed, ctx: context.Background()}

	name := flag.Arg(0)
	if name == "" {
		fmt.Fprintln(os.Stderr, "usage: experiments [-quick] [-seed N] <experiment>")
		for _, e := range experiments {
			fmt.Fprintf(os.Stderr, "  %-8s %s\n", e.name, e.desc)
		}
		fmt.Fprintln(os.Stderr, "  all      run everything")
		os.Exit(2)
	}

	found := false
	for _, e := range experiments {
		if name != "all" && e.name != name {
			continue
		}
		found = true
		if err := runExperiment(os.Stdout, e, opt); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", name)
		os.Exit(2)
	}
}
