package parsurf_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"parsurf"
	"parsurf/internal/goldentrace"
	"parsurf/internal/persist"
)

// checkpointSpec builds a canonical session spec for the named engine:
// the shared ZGB preset on the golden-trace lattice (the model-free
// ziff engine runs bare), with a random initial coverage so the
// checkpointed configuration is never the trivial all-empty one.
func checkpointSpec(t testing.TB, engine string, engOpts ...parsurf.EngineOption) *parsurf.SessionSpec {
	t.Helper()
	opts := []parsurf.SessionOption{
		parsurf.WithLattice(goldentrace.Side, goldentrace.Side),
		parsurf.WithEngine(engine, engOpts...),
		parsurf.WithSeed(goldentrace.Seed),
	}
	es, ok := parsurf.LookupEngine(engine)
	if !ok {
		t.Fatalf("engine %q not registered", engine)
	}
	if !es.ModelFree {
		opts = append(opts,
			parsurf.WithModelPreset("zgb", nil),
			parsurf.WithInit(parsurf.RandomInit(0.6, 0.25, 0.15)))
	}
	spec, err := parsurf.NewSpec(opts...)
	if err != nil {
		t.Fatalf("%s: %v", engine, err)
	}
	return spec
}

// checkCheckpointResume asserts the checkpoint/resume contract for one
// spec: running N steps, checkpointing and resuming must continue the
// trajectory bit for bit — the resumed session's next M steps
// fingerprint identically to an uninterrupted N+M run, and taking the
// checkpoint must not perturb the session it is taken from.
func checkCheckpointResume(t *testing.T, spec *parsurf.SessionSpec) {
	t.Helper()
	name := spec.EngineName()
	total := goldentrace.StepsFor(name)
	n := total / 3
	m := total - n

	// Uninterrupted reference: N silent steps, then M fingerprinted.
	ref, err := spec.Session()
	if err != nil {
		t.Fatalf("%s: building reference session: %v", name, err)
	}
	prefixRef := goldentrace.Fingerprint(ref.Engine(), n)
	wantTail := goldentrace.Fingerprint(ref.Engine(), m)

	// Interrupted run: same N steps, checkpoint, then continue.
	work, err := spec.Session()
	if err != nil {
		t.Fatalf("%s: building session: %v", name, err)
	}
	if got := goldentrace.Fingerprint(work.Engine(), n); got != prefixRef {
		t.Fatalf("%s: two sessions from one spec diverge within %d steps", name, n)
	}
	stepsAtCP, timeAtCP := work.Engine().Steps(), work.Engine().Time()
	var buf bytes.Buffer
	if err := work.Checkpoint(&buf); err != nil {
		t.Fatalf("%s: checkpoint: %v", name, err)
	}
	if got := goldentrace.Fingerprint(work.Engine(), m); got != wantTail {
		t.Errorf("%s: trajectory after taking a checkpoint fingerprints %v, want %v — Checkpoint perturbed the session", name, got, wantTail)
	}

	resumed, err := parsurf.ResumeSession(spec, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: resume: %v", name, err)
	}
	if got := resumed.Engine().Steps(); got != stepsAtCP {
		t.Errorf("%s: resumed at step %d, checkpoint was taken at %d", name, got, stepsAtCP)
	}
	if got := resumed.Engine().Time(); got != timeAtCP {
		t.Errorf("%s: resumed clock %v, checkpoint was taken at %v", name, got, timeAtCP)
	}
	if got := goldentrace.Fingerprint(resumed.Engine(), m); got != wantTail {
		t.Errorf("%s: resumed trajectory fingerprints %v, want uninterrupted %v", name, got, wantTail)
	}
}

// Every registered engine checkpoints and resumes bit-exactly: N steps
// → Checkpoint → M steps reproduces an uninterrupted N+M trajectory.
func TestCheckpointResumeBitExactAllEngines(t *testing.T) {
	for _, name := range parsurf.Engines() {
		t.Run(name, func(t *testing.T) {
			checkCheckpointResume(t, checkpointSpec(t, name))
		})
	}
}

// The L-PNDCA chunk-selection strategies carry different amounts of
// cross-step state (cursor and permutation for the sweep orders, the
// incrementally-maintained Fenwick weights for "rates"); each must
// survive a checkpoint exactly.
func TestCheckpointResumeLPNDCAStrategies(t *testing.T) {
	for _, strategy := range []string{"order", "randomorder", "random", "rates"} {
		t.Run(strategy, func(t *testing.T) {
			checkCheckpointResume(t, checkpointSpec(t, "lpndca", parsurf.StrategyName(strategy)))
		})
	}
}

// checkpointAfter returns the canonical spec of the named engine and a
// checkpoint of its session taken after steps steps.
func checkpointAfter(tb testing.TB, name string, steps int) (*parsurf.SessionSpec, []byte) {
	tb.Helper()
	spec := checkpointSpec(tb, name)
	sess, err := spec.Session()
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	goldentrace.Fingerprint(sess.Engine(), steps)
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		tb.Fatalf("%s: checkpoint: %v", name, err)
	}
	return spec, buf.Bytes()
}

// rewriteCheckpoint decodes a checkpoint, lets mutate edit it, and
// re-encodes it, for forging mismatched checkpoints in guard tests.
func rewriteCheckpoint(t *testing.T, data []byte, mutate func(cp *persist.Checkpoint)) []byte {
	t.Helper()
	cp, err := persist.Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reloading checkpoint: %v", err)
	}
	mutate(cp)
	var out bytes.Buffer
	if err := persist.Write(&out, cp); err != nil {
		t.Fatalf("rewriting checkpoint: %v", err)
	}
	return out.Bytes()
}

// ResumeSession refuses checkpoints that do not belong to the spec:
// wrong engine, wrong lattice, wrong species count, a different spec
// (hash mismatch), or an engine payload with trailing bytes.
func TestResumeSessionGuards(t *testing.T) {
	spec := checkpointSpec(t, "rsm")
	sess, err := spec.Session()
	if err != nil {
		t.Fatal(err)
	}
	goldentrace.Fingerprint(sess.Engine(), 10)
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	expectErr := func(t *testing.T, spec *parsurf.SessionSpec, data []byte, want string) {
		t.Helper()
		_, err := parsurf.ResumeSession(spec, bytes.NewReader(data))
		if err == nil {
			t.Fatalf("resume accepted a checkpoint that should fail with %q", want)
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("resume error %q does not mention %q", err, want)
		}
	}

	t.Run("wrong engine", func(t *testing.T) {
		expectErr(t, checkpointSpec(t, "vssm"), good, "engine")
	})
	t.Run("wrong lattice", func(t *testing.T) {
		other, err := parsurf.NewSpec(
			parsurf.WithModelPreset("zgb", nil),
			parsurf.WithLattice(goldentrace.Side+10, goldentrace.Side+10),
			parsurf.WithEngine("rsm"),
			parsurf.WithSeed(goldentrace.Seed))
		if err != nil {
			t.Fatal(err)
		}
		// Forge matching engine+hash so the extent guard is what trips.
		forged := rewriteCheckpoint(t, good, func(cp *persist.Checkpoint) { cp.SpecHash = other.Hash() })
		expectErr(t, other, forged, "lattice")
	})
	t.Run("different spec hash", func(t *testing.T) {
		other, err := parsurf.NewSpec(
			parsurf.WithModelPreset("zgb", nil),
			parsurf.WithLattice(goldentrace.Side, goldentrace.Side),
			parsurf.WithEngine("rsm"),
			parsurf.WithSeed(goldentrace.Seed+1))
		if err != nil {
			t.Fatal(err)
		}
		expectErr(t, other, good, "hash")
	})
	t.Run("wrong species count", func(t *testing.T) {
		forged := rewriteCheckpoint(t, good, func(cp *persist.Checkpoint) {
			cp.NumSpecies = 7
			cp.SpecHash = "" // keep the species guard, not the hash guard, in play
		})
		expectErr(t, spec, forged, "species")
	})
	t.Run("trailing payload bytes", func(t *testing.T) {
		forged := rewriteCheckpoint(t, good, func(cp *persist.Checkpoint) {
			cp.Payload = append(append([]byte(nil), cp.Payload...), 0xab)
		})
		expectErr(t, spec, forged, "trailing")
	})
}

// Every engine's restored clock and step count must agree with the
// checkpoint header, and the clock must be a finite non-negative time.
// Each engine but ziff (whose clock is trials/N) leads its payload with
// the clock; a NaN there, copied into the header so only the
// finiteness guard can trip, must be refused, as must a header whose
// time or step count was altered after the fact.
func TestResumeSessionRejectsInconsistentClock(t *testing.T) {
	for _, name := range parsurf.Engines() {
		t.Run(name, func(t *testing.T) {
			spec, good := checkpointAfter(t, name, 3)
			if _, err := parsurf.ResumeSession(spec, bytes.NewReader(good)); err != nil {
				t.Fatalf("untampered checkpoint refused: %v", err)
			}
			type forgery struct {
				what   string
				mutate func(cp *persist.Checkpoint)
			}
			cases := []forgery{
				{"header time", func(cp *persist.Checkpoint) { cp.Time = math.Nextafter(cp.Time, math.Inf(1)) }},
				{"header steps", func(cp *persist.Checkpoint) { cp.Steps++ }},
			}
			if name != "ziff" {
				cases = append(cases, forgery{"nan clock", func(cp *persist.Checkpoint) {
					cp.Payload = append([]byte(nil), cp.Payload...)
					binary.LittleEndian.PutUint64(cp.Payload, math.Float64bits(math.NaN()))
					cp.Time = math.NaN()
				}})
			}
			for _, c := range cases {
				t.Run(c.what, func(t *testing.T) {
					forged := rewriteCheckpoint(t, good, c.mutate)
					_, err := parsurf.ResumeSession(spec, bytes.NewReader(forged))
					if err == nil {
						t.Fatal("resume accepted the forged checkpoint")
					}
					if !strings.Contains(err.Error(), "clock") && !strings.Contains(err.Error(), "step count") {
						t.Fatalf("error %q names neither the clock nor the step count", err)
					}
				})
			}
		})
	}
}
