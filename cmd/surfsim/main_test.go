package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"parsurf"
)

type specResult struct {
	spec  *parsurf.SessionSpec
	title string
}

// The -spec acceptance criterion: for a fixed seed, running a
// hand-written spec file is byte-identical to the equivalent flag
// invocation — both single sessions and ensembles, including the
// init-preset path of the diffusion/ising models.
func TestSpecFileMatchesFlagInvocation(t *testing.T) {
	cases := []struct {
		name          string
		flags         func() (specResult, error)
		specJSON      string
		replicas, par int
	}{
		{
			name: "zgb lpndca",
			flags: func() (specResult, error) {
				sp, title, err := specFromFlags("zgb", "", "lpndca", 40, 9, 10, "rates", 1, 4, 0.5)
				return specResult{sp, title}, err
			},
			specJSON: `{
			  "model":   {"name": "zgb"},
			  "lattice": {"l0": 40, "l1": 40},
			  "engine":  {"name": "lpndca", "L": 10, "strategy": "rates"},
			  "seed":    9
			}`,
			replicas: 1, par: 1,
		},
		{
			name: "diffusion rsm with init preset",
			flags: func() (specResult, error) {
				sp, title, err := specFromFlags("diffusion", "", "rsm", 30, 4, 1, "random", 1, 4, 0.5)
				return specResult{sp, title}, err
			},
			specJSON: `{
			  "model":   {"name": "diffusion"},
			  "lattice": {"l0": 30, "l1": 30},
			  "engine":  {"name": "rsm"},
			  "seed":    4,
			  "init":    {"preset": "random", "fractions": [0.5, 0.5]}
			}`,
			replicas: 1, par: 1,
		},
		{
			name: "ziff ensemble",
			flags: func() (specResult, error) {
				sp, title, err := specFromFlags("zgb", "", "ziff", 32, 11, 1, "random", 1, 4, 0.52)
				return specResult{sp, title}, err
			},
			specJSON: `{
			  "lattice": {"l0": 32, "l1": 32},
			  "engine":  {"name": "ziff", "y": 0.52},
			  "seed":    11
			}`,
			replicas: 4, par: 2,
		},
	}
	for _, tc := range cases {
		fromFlags, err := tc.flags()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		path := filepath.Join(t.TempDir(), "spec.json")
		if err := os.WriteFile(path, []byte(tc.specJSON), 0o644); err != nil {
			t.Fatal(err)
		}
		fromFile, err := loadSpec(path)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		const tEnd, dt = 5, 0.5
		var flagOut, fileOut, discard bytes.Buffer
		if err := run(fromFlags.spec, fromFlags.title, tEnd, dt, tc.replicas, tc.par, false, "", "", "", &flagOut, &discard); err != nil {
			t.Fatalf("%s flags run: %v", tc.name, err)
		}
		if err := run(fromFile, path, tEnd, dt, tc.replicas, tc.par, false, "", "", "", &fileOut, &discard); err != nil {
			t.Fatalf("%s spec run: %v", tc.name, err)
		}
		if flagOut.Len() == 0 {
			t.Fatalf("%s: empty output", tc.name)
		}
		if !bytes.Equal(flagOut.Bytes(), fileOut.Bytes()) {
			t.Errorf("%s: -spec output differs from the flag invocation\nflags:\n%s\nspec:\n%s",
				tc.name, flagOut.String(), fileOut.String())
		}
	}
}

// The -checkpoint/-resume acceptance criterion: a run to t=N that
// snapshots, resumed and continued to t=N+M, prints exactly the tail
// the uninterrupted t=N+M run prints past t=N.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	spec, _, err := specFromFlags("zgb", "", "ziff", 32, 7, 1, "random", 1, 4, 0.52)
	if err != nil {
		t.Fatal(err)
	}
	const dt = 0.5
	var full, head, tail, discard bytes.Buffer
	if err := run(spec, "control", 10, dt, 1, 1, false, "", "", "", &full, &discard); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if err := run(spec, "head", 5, dt, 1, 1, false, "", ckpt, "", &head, &discard); err != nil {
		t.Fatal(err)
	}
	if err := run(spec, "tail", 10, dt, 1, 1, false, "", "", ckpt, &tail, &discard); err != nil {
		t.Fatal(err)
	}
	// full = header + rows(0..10); head = header + rows(0..5);
	// tail = header + rows past 5. Their concatenation modulo the
	// repeated header must be the uninterrupted run.
	tailRows := bytes.SplitN(tail.Bytes(), []byte("\n"), 2)[1]
	glued := append(append([]byte{}, head.Bytes()...), tailRows...)
	if !bytes.Equal(glued, full.Bytes()) {
		t.Errorf("resumed run differs from uninterrupted control\ncontrol:\n%s\nglued:\n%s",
			full.String(), string(glued))
	}
}

// Resuming to a -t at or before the checkpoint's clock is an error that
// names both times, and it comes before any CSV or SVG output: before,
// the empty series made -plot panic and left an empty -svg file behind.
func TestResumeToEarlierTimeIsAnError(t *testing.T) {
	spec, _, err := specFromFlags("zgb", "", "ziff", 20, 7, 1, "random", 1, 4, 0.52)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	var discard bytes.Buffer
	if err := run(spec, "head", 2, 1, 1, 1, false, "", ckpt, "", &discard, &discard); err != nil {
		t.Fatal(err)
	}
	for _, tEnd := range []float64{1, 2} {
		svg := filepath.Join(dir, "plot.svg")
		var stdout bytes.Buffer
		err := run(spec, "tail", tEnd, 1, 1, 1, true, svg, "", ckpt, &stdout, &discard)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("-t %g is not after", tEnd)) ||
			!strings.Contains(err.Error(), "t=2") {
			t.Errorf("-t %g: err %v, want one naming -t and the checkpoint's clock", tEnd, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("-t %g: CSV written before the error: %q", tEnd, stdout.String())
		}
		if _, err := os.Stat(svg); !os.IsNotExist(err) {
			t.Errorf("-t %g: SVG file left behind (stat err %v)", tEnd, err)
		}
	}
}

// A non-positive -dt on a single session is an error that exits
// non-zero, as it already is with -replicas: before, the run printed
// only the CSV header and exited 0. The test re-runs its own binary
// with the surfsim flags after "--"; that child runs main.
func TestNonPositiveDtExitsNonZero(t *testing.T) {
	if args := flag.Args(); len(args) > 0 {
		os.Args = append([]string{"surfsim"}, args...)
		flag.CommandLine = flag.NewFlagSet("surfsim", flag.ExitOnError)
		main()
		return
	}
	for _, dt := range []string{"0", "-1"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNonPositiveDtExitsNonZero$", "--",
			"-dt", dt, "-size", "20", "-t", "1")
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() == 0 {
			t.Errorf("-dt %s: err %v, want a non-zero exit (stdout %q)", dt, err, stdout.String())
		}
	}
}
