package parsurf_test

import (
	"bytes"
	"math"
	"testing"

	"parsurf"
	"parsurf/internal/persist"
)

// FuzzResumeSession: whatever the checkpoint bytes, ResumeSession either
// errors or yields a session whose clock is finite and bit-equal to the
// checkpoint header's, and which never runs backwards over the next ten
// steps. The corpus is seeded with one checkpoint per registered
// engine; the spec resumed against is the one for the engine the
// (possibly mutated) checkpoint names.
func FuzzResumeSession(f *testing.F) {
	specs := map[string]*parsurf.SessionSpec{}
	for _, name := range parsurf.Engines() {
		spec, data := checkpointAfter(f, name, 3)
		specs[name] = spec
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cp, err := persist.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		spec, ok := specs[cp.Engine]
		if !ok {
			return
		}
		sess, err := parsurf.ResumeSession(spec, bytes.NewReader(data))
		if err != nil {
			return
		}
		eng := sess.Engine()
		prev := eng.Time()
		if math.IsNaN(prev) || math.IsInf(prev, 0) || math.Float64bits(prev) != math.Float64bits(cp.Time) {
			t.Fatalf("%s: accepted checkpoint resumes at clock %v, header says %v", cp.Engine, prev, cp.Time)
		}
		for i := 0; i < 10; i++ {
			eng.Step()
			now := eng.Time()
			if math.IsNaN(now) || now < prev {
				t.Fatalf("%s: step %d: clock %v after %v", cp.Engine, i, now, prev)
			}
			prev = now
		}
	})
}
