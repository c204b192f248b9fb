// Command goldengen regenerates the two trajectory-pin tables of the
// root package: goldenTraces in api_test.go (one fingerprint per
// registered engine over a fixed-seed ZGB run) and the want table of
// TestModelTracesBitIdentical in fingerprint_test.go (vssm, frm and
// rate-weighted lpndca on every built-in model). Each entry is a
// {configuration, clock} pair of FNV-64a hashes, so the diff of a
// re-pin shows whether a change moved the configurations or only the
// clock. Paste the output into the tables only when a change
// *intentionally* alters trajectories, and say why in CHANGES.md;
// performance changes must leave every hash untouched. The run
// parameters and hashes live in internal/goldentrace, shared with the
// tests, so the two cannot drift apart.
//
//	go run ./cmd/goldengen
package main

import (
	"fmt"
	"os"

	"parsurf"
	"parsurf/internal/goldentrace"
)

func main() {
	fmt.Println("// api_test.go goldenTraces")
	m := parsurf.NewZGBModel(parsurf.DefaultZGBRates())
	for _, name := range parsurf.Engines() {
		lat := parsurf.NewSquareLattice(goldentrace.Side)
		cm := parsurf.MustCompile(m, lat)
		eng, err := parsurf.NewEngine(name, cm, parsurf.NewConfig(lat), parsurf.NewRNG(goldentrace.Seed))
		if err != nil {
			fail(err)
		}
		fmt.Printf("%q: %v,\n", name, goldentrace.Fingerprint(eng, goldentrace.StepsFor(name)))
	}
	fmt.Println()
	fmt.Println("// fingerprint_test.go TestModelTracesBitIdentical")
	for _, c := range goldentrace.ModelCases() {
		tr, _, err := c.Run()
		if err != nil {
			fail(err)
		}
		fmt.Printf("%q: %v,\n", c.Key(), tr)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "goldengen:", err)
	os.Exit(1)
}
