// Command surfsim is a general-purpose surface-reaction simulator: pick
// a model, an engine, a lattice size and a time span — or hand it a
// serialized session spec with -spec — and it prints the coverage time
// series as CSV (stdout) and an optional terminal plot. Engines are
// resolved through the parsurf registry, so every registered engine is
// available by name — run with -method help for the list.
//
// Examples:
//
//	surfsim -model zgb -method rsm -size 100 -t 50
//	surfsim -model ptco -method vssm -size 100 -t 200 -plot
//	surfsim -model ptco -method lpndca -L 100 -strategy random -size 100 -t 200
//	surfsim -model zgb -method ddrsm -workers 4 -size 80 -t 30
//	surfsim -method ziff -y 0.52 -size 128 -t 200
//	surfsim -model zgb -method pndca -workers 4 -replicas 16 -par 4 -t 50
//	surfsim -spec myrun.json -t 50
//	surfsim -spec myrun.json -t 50 -checkpoint run.ckpt
//	surfsim -spec myrun.json -t 100 -resume run.ckpt
//
// -checkpoint writes an engine-exact snapshot after the run; -resume
// restarts from one and continues to -t, producing exactly the tail the
// uninterrupted longer run would have printed.
//
// A spec file is the JSON form of a parsurf.SessionSpec (see the
// "Spec files & surfd" section of the README); for a fixed seed,
// running a spec file is byte-identical to the equivalent flag
// invocation. The run-shaping flags (-t, -dt, -replicas, -par, -plot,
// -svg) still apply with -spec; the spec-owned flags (-model, -method,
// -size, -seed, …) conflict with it and are rejected.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"parsurf"
	"parsurf/internal/modelfile"
	"parsurf/internal/sim"
	"parsurf/internal/stats"
	"parsurf/internal/store"
	"parsurf/internal/timegrid"
	"parsurf/internal/trace"
)

// specOwnedFlags are the flags that describe the session itself; a spec
// file is the single source of truth for those, so combining them with
// -spec is rejected rather than silently preferring one side.
var specOwnedFlags = []string{
	"model", "modelfile", "method", "size", "seed", "L", "strategy", "workers", "block", "y",
}

func main() {
	var (
		modelName = flag.String("model", "zgb", "model: zgb | ptco | diffusion | ising")
		modelFile = flag.String("modelfile", "", "read the model from a definition file instead (see internal/modelfile)")
		method    = flag.String("method", "rsm", "engine name from the registry (use 'help' to list)")
		size      = flag.Int("size", 100, "lattice side (multiples of 10 keep every partition valid)")
		tEnd      = flag.Float64("t", 50, "simulated end time")
		dt        = flag.Float64("dt", 0.25, "sample interval")
		seed      = flag.Uint64("seed", 1, "random seed")
		l         = flag.Int("L", 1, "L-PNDCA: trials per chunk selection")
		strategy  = flag.String("strategy", "random", "L-PNDCA chunk selection: order | randomorder | random | rates")
		workers   = flag.Int("workers", 1, "PNDCA/typepart sweep goroutines / DDRSM strips")
		block     = flag.Int("block", 4, "BCA block side")
		y         = flag.Float64("y", 0.5, "ziff: CO impingement fraction")
		specPath  = flag.String("spec", "", "run a serialized session spec (JSON) instead of the model/engine flags")
		replicas  = flag.Int("replicas", 1, "ensemble replicas (>1 prints the ensemble mean series)")
		par       = flag.Int("par", 4, "ensemble worker goroutines")
		plot      = flag.Bool("plot", false, "print an ASCII plot to stderr")
		svgPath   = flag.String("svg", "", "also write an SVG chart of the coverages to this path")
		ckptPath  = flag.String("checkpoint", "", "write an engine-exact session checkpoint to this path after the run (single session only)")
		resume    = flag.String("resume", "", "resume the session from a checkpoint written by -checkpoint and continue to -t (single session only)")
	)
	flag.Parse()

	if *method == "help" {
		printHelp(os.Stderr)
		os.Exit(2)
	}

	var spec *parsurf.SessionSpec
	var title string
	var err error
	if *specPath != "" {
		if conflict := specFlagConflict(); conflict != "" {
			fmt.Fprintf(os.Stderr, "surfsim: -spec conflicts with -%s (the spec file owns it; drop the flag or edit the spec)\n", conflict)
			os.Exit(1)
		}
		spec, err = loadSpec(*specPath)
		title = *specPath
	} else {
		spec, title, err = specFromFlags(*modelName, *modelFile, *method, *size, *seed,
			*l, *strategy, *workers, *block, *y)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "surfsim:", err)
		os.Exit(1)
	}
	if (*ckptPath != "" || *resume != "") && *replicas != 1 {
		fmt.Fprintln(os.Stderr, "surfsim: -checkpoint/-resume snapshot a single session; drop -replicas")
		os.Exit(1)
	}
	if err := run(spec, title, *tEnd, *dt, *replicas, *par, *plot, *svgPath, *ckptPath, *resume, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "surfsim:", err)
		os.Exit(1)
	}
}

// printHelp lists every name a flag or spec file can reference.
func printHelp(w io.Writer) {
	fmt.Fprintln(w, "registered engines:")
	for _, spec := range parsurf.EngineSpecs() {
		fmt.Fprintf(w, "  %-9s %s\n", spec.Name, spec.Doc)
	}
	fmt.Fprintf(w, "partition builders (spec files): %s\n", strings.Join(parsurf.PartitionBuilders(), ", "))
	fmt.Fprintf(w, "type-split builders (spec files): %s\n", strings.Join(parsurf.TypeSplitBuilders(), ", "))
	fmt.Fprintf(w, "init presets (spec files): %s\n", strings.Join(parsurf.InitPresets(), ", "))
	fmt.Fprintf(w, "model presets: %s\n", strings.Join(parsurf.ModelPresets(), ", "))
}

// specFlagConflict returns the first explicitly-set flag that a spec
// file owns, or "".
func specFlagConflict() string {
	owned := make(map[string]bool, len(specOwnedFlags))
	for _, name := range specOwnedFlags {
		owned[name] = true
	}
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if owned[f.Name] {
			set = append(set, f.Name)
		}
	})
	sort.Strings(set)
	if len(set) == 0 {
		return ""
	}
	return set[0]
}

// runResumed continues a resumed session to tEnd, sampling on the
// t=0-anchored grid the original run used (Session.Run anchors its
// grid at the current clock, which would shift every remaining sample
// by the checkpoint time). The loop starts at the first grid point past
// the restored clock, so the printed rows are exactly the tail the
// uninterrupted run prints past the checkpoint. A tEnd at or before the
// restored clock leaves nothing to sample and is an error.
func runResumed(sess *parsurf.Session, tEnd, dt float64, record parsurf.ObserverFunc) error {
	eng := sess.Engine()
	if tEnd <= eng.Time() {
		return fmt.Errorf("-t %g is not after the checkpoint's clock t=%g", tEnd, eng.Time())
	}
	grid, err := timegrid.New(tEnd, dt)
	if err != nil {
		return err
	}
	k0 := 0
	for k0 < grid.Len() && grid.At(k0) <= eng.Time() {
		k0++
	}
	_, _, err = sim.SampleGrid(context.Background(), eng, grid, k0, record)
	return err
}

// writeCheckpoint snapshots the finished session to path through the
// store's atomic writer (temp file, fsync, rename, directory fsync), so
// a crash mid-write never leaves a half-written checkpoint under the
// requested name.
func writeCheckpoint(sess *parsurf.Session, path string) error {
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		return err
	}
	return store.FS(filepath.Dir(path)).Put(filepath.Base(path), buf.Bytes())
}

// loadSpec reads and validates a serialized session spec.
func loadSpec(path string) (*parsurf.SessionSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := parsurf.ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// specFromFlags builds the session spec the flag set describes; the
// returned title labels plots.
func specFromFlags(modelName, modelFile, method string, size int, seed uint64,
	l int, strategy string, workers, block int, y float64) (*parsurf.SessionSpec, string, error) {
	engSpec, ok := parsurf.LookupEngine(method)
	if !ok {
		return nil, "", fmt.Errorf("unknown engine %q (registered: %v)", method, parsurf.Engines())
	}

	// Forward each flag to every engine that accepts it; the registry
	// validates the rest. Flag defaults coincide with engine defaults.
	var engOpts []parsurf.EngineOption
	if engSpec.Accepts&parsurf.OptL != 0 {
		engOpts = append(engOpts, parsurf.Trials(l))
	}
	if engSpec.Accepts&parsurf.OptStrategy != 0 {
		engOpts = append(engOpts, parsurf.StrategyName(strategy))
	}
	if engSpec.Accepts&parsurf.OptWorkers != 0 {
		engOpts = append(engOpts, parsurf.Workers(workers))
	}
	if engSpec.Accepts&parsurf.OptBlocks != 0 {
		engOpts = append(engOpts, parsurf.BlockSize(block, block))
	}
	if engSpec.Accepts&parsurf.OptY != 0 {
		engOpts = append(engOpts, parsurf.COFraction(y))
	}

	sessOpts := []parsurf.SessionOption{
		parsurf.WithLattice(size, size),
		parsurf.WithEngine(method, engOpts...),
		parsurf.WithSeed(seed),
	}
	// The model flags are validated even when the engine is model-free,
	// so a typo'd -model/-modelfile never yields a plausible-looking run.
	title := modelName
	switch {
	case modelFile != "":
		f, err := os.Open(modelFile)
		if err != nil {
			return nil, "", err
		}
		m, err := modelfile.Parse(f)
		f.Close()
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", modelFile, err)
		}
		title = modelFile
		if !engSpec.ModelFree {
			sessOpts = append(sessOpts, parsurf.WithModel(m))
		}
	case slices.Contains(parsurf.ModelPresets(), modelName):
		if !engSpec.ModelFree {
			sessOpts = append(sessOpts, parsurf.WithModelPreset(modelName, nil))
		}
	default:
		return nil, "", fmt.Errorf("unknown model %q (presets: %v)", modelName, parsurf.ModelPresets())
	}
	if !engSpec.ModelFree && (modelName == "diffusion" || modelName == "ising") && modelFile == "" {
		// These models are trivial from the all-vacant surface; seed a
		// half-filled one. The preset draws from the session's init
		// stream, so -spec files naming the same preset reproduce the
		// run byte for byte, and ensemble replicas (which run on split
		// streams) get distinct initial surfaces.
		sessOpts = append(sessOpts, parsurf.WithInit(parsurf.RandomInit(0.5, 0.5)))
	}

	spec, err := parsurf.NewSpec(sessOpts...)
	if err != nil {
		return nil, "", err
	}
	return spec, fmt.Sprintf("%s / %s", title, method), nil
}

func run(spec *parsurf.SessionSpec, title string, tEnd, dt float64, replicas, par int,
	plot bool, svgPath, ckptPath, resumePath string, stdout, stderr io.Writer) error {
	var names []string
	var series []*stats.Series
	if replicas > 1 {
		// Streaming ensemble: replicas merge into running moments as
		// they finish, so memory stays O(species × grid) however many
		// replicas run; nothing needs the raw members here.
		ens, err := parsurf.RunEnsemble(context.Background(), spec, replicas, par, tEnd, dt)
		if err != nil {
			return err
		}
		names = spec.SpeciesNames()
		series = ens.Mean
	} else {
		var sess *parsurf.Session
		var err error
		if resumePath != "" {
			f, err2 := os.Open(resumePath)
			if err2 != nil {
				return err2
			}
			sess, err = parsurf.ResumeSession(spec, f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", resumePath, err)
			}
		} else if sess, err = spec.Session(); err != nil {
			return err
		}
		names = sess.SpeciesNames()
		numSpecies := sess.NumSpecies()
		series = make([]*stats.Series, numSpecies)
		for i := range series {
			series[i] = &stats.Series{}
		}
		n := float64(sess.Lattice().N())
		record := parsurf.ObserverFunc(func(t float64, cfg *parsurf.Config) {
			counts := cfg.CountAll(numSpecies)
			for sp := range series {
				series[sp].Append(t, float64(counts[sp])/n)
			}
		})
		if resumePath != "" {
			if err := runResumed(sess, tEnd, dt, record); err != nil {
				return err
			}
		} else if _, err := sess.Run(context.Background(), parsurf.Until(tEnd),
			parsurf.SampleEvery(dt, record)); err != nil {
			return err
		}
		if ckptPath != "" {
			if err := writeCheckpoint(sess, ckptPath); err != nil {
				return err
			}
		}
	}

	header := append([]string{"t"}, names...)
	if err := trace.WriteCSV(stdout, header, series...); err != nil {
		return err
	}
	if plot {
		fmt.Fprintf(stderr, "coverages (%v):\n%s", names,
			trace.ASCIIPlot(14, 72, "ox.+*#", series...))
	}
	if svgPath != "" {
		f, err := os.Create(svgPath)
		if err != nil {
			return err
		}
		defer f.Close()
		l0, l1 := spec.Extents()
		opt := trace.SVGOptions{
			Title:  fmt.Sprintf("%s, %dx%d", title, l0, l1),
			Labels: names,
		}
		if err := trace.WriteSVG(f, opt, series...); err != nil {
			return err
		}
	}
	return nil
}
