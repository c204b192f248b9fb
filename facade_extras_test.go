package parsurf_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"parsurf"
)

func TestFacadeObserversAndCheckpoint(t *testing.T) {
	spec, err := parsurf.NewSpec(
		parsurf.WithModelPreset("zgb", nil),
		parsurf.WithLattice(16, 16),
		parsurf.WithEngine("rsm"),
		parsurf.WithSeed(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := spec.Session()
	if err != nil {
		t.Fatal(err)
	}

	cov := parsurf.NewCoverageObserver(0, 1, 2)
	snap := parsurf.NewSnapshotObserver(1)
	st, err := sess.Run(context.Background(), parsurf.Until(5), parsurf.SampleEvery(0.5, cov, snap))
	if err != nil {
		t.Fatal(err)
	}
	n := st.Samples
	if n == 0 || cov.Series[0].Len() != n || len(snap.Snapshots) != n {
		t.Fatal("observers missed samples")
	}

	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := parsurf.ResumeSession(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !resumed.Config().Equal(sess.Config()) || resumed.Engine().Time() != sess.Engine().Time() {
		t.Fatal("checkpoint round trip lost state")
	}
	// Both continue the same trajectory.
	sess.Engine().Step()
	resumed.Engine().Step()
	if !resumed.Config().Equal(sess.Config()) || resumed.Engine().Time() != sess.Engine().Time() {
		t.Fatal("resumed session diverged on its first step")
	}
}

func TestFacadeModelFile(t *testing.T) {
	text := "species * A\nreaction ads 1 (0,0): * -> A\n"
	m, err := parsurf.ParseModel(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := parsurf.FormatModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	back, err := parsurf.ParseModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Types) != 1 || back.Species[1] != "A" {
		t.Fatal("model file round trip failed")
	}
}

func TestFacadeClustersAndOscillation(t *testing.T) {
	lat := parsurf.NewSquareLattice(10)
	cfg := parsurf.NewConfig(lat)
	cfg.SetXY(1, 1, 1)
	cfg.SetXY(1, 2, 1)
	cfg.SetXY(5, 5, 1)
	st := parsurf.Clusters(cfg, 1)
	if st.Clusters != 2 || st.Largest != 2 {
		t.Fatalf("cluster stats %+v", st)
	}

	s := &parsurf.Series{}
	for i := 0; i <= 1000; i++ {
		tt := float64(i) * 0.1
		s.Append(tt, osc(tt))
	}
	if _, ok := parsurf.DetectOscillation(s, 512, 0.2); !ok {
		t.Fatal("oscillation missed")
	}
}

func TestFacadeSVG(t *testing.T) {
	s := &parsurf.Series{}
	s.Append(0, 0)
	s.Append(1, 1)
	var buf bytes.Buffer
	if err := parsurf.WriteSVG(&buf, "demo", []string{"x"}, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "<svg") {
		t.Fatal("no SVG output")
	}
}

func TestFacadeArrhenius(t *testing.T) {
	if k := parsurf.Arrhenius(2, 0, 300); k != 2 {
		t.Fatalf("zero activation energy: %v", k)
	}
}

func TestFacadeSteadyState(t *testing.T) {
	ss := parsurf.NewSteadyState(3, 0.01)
	for i := 0; i < 5; i++ {
		ss.Add(float64(i))
	}
	steady := false
	for i := 0; i < 8; i++ {
		steady = ss.Add(5) || steady
	}
	if !steady {
		t.Fatal("plateau missed")
	}
}
