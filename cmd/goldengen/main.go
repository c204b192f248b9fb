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
// It then prints, per engine, the row that engine's epoch history in
// epoch_test.go must end with: its registry epoch and the digest of its
// pins. A re-pin is therefore a paste plus an epoch bump: raise the
// engine's registry.Spec.Epoch, run goldengen, paste the new pins, and
// append the engine's printed row to its history. Rows of engines
// whose pins did not move already match their last history row.
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
	golden := map[string]goldentrace.Trace{}
	for _, name := range parsurf.Engines() {
		lat := parsurf.NewSquareLattice(goldentrace.Side)
		cm := parsurf.MustCompile(m, lat)
		eng, err := parsurf.NewEngine(name, cm, parsurf.NewConfig(lat), parsurf.NewRNG(goldentrace.Seed))
		if err != nil {
			fail(err)
		}
		golden[name] = goldentrace.Fingerprint(eng, goldentrace.StepsFor(name))
		fmt.Printf("%q: %v,\n", name, golden[name])
	}
	fmt.Println()
	fmt.Println("// fingerprint_test.go TestModelTracesBitIdentical")
	model := map[string]goldentrace.Trace{}
	for _, c := range goldentrace.ModelCases() {
		tr, _, err := c.Run()
		if err != nil {
			fail(err)
		}
		model[c.Key()] = tr
		fmt.Printf("%q: %v,\n", c.Key(), tr)
	}
	fmt.Println()
	fmt.Println("// epoch_test.go epochHistory: the last row of each engine's history")
	for _, name := range parsurf.Engines() {
		spec, _ := parsurf.LookupEngine(name)
		row := goldentrace.EpochRow{Epoch: spec.Epoch, Digest: goldentrace.Digest(name, golden[name], model)}
		fmt.Printf("%q: %v,\n", name, row)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "goldengen:", err)
	os.Exit(1)
}
