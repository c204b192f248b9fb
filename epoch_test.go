package parsurf_test

import (
	"bytes"
	"strings"
	"testing"

	"parsurf"
	"parsurf/internal/goldentrace"
	"parsurf/internal/job"
	"parsurf/internal/store"
)

// epochHistory is every engine's append-only trajectory-epoch history:
// each row is an epoch (registry.Spec.Epoch) and the goldentrace.Digest
// of the engine's goldenTraces and modelTraces entries at that epoch.
// A change that re-pins an engine must also bump its epoch and append
// the row cmd/goldengen prints for it, so results, checkpoints and
// shards of the old trajectories stop matching. Never edit a row.
//
// frm epoch 1: its checkpoint payload no longer stores the per-type
// instance counts, which moved its six model-trace configuration
// halves; its trajectories did not move.
var epochHistory = map[string][]goldentrace.EpochRow{
	"bca":      {{Epoch: 0, Digest: 0x5fa2970f613684c9}},
	"ddrsm":    {{Epoch: 0, Digest: 0xd248f95ec628ffdc}},
	"frm":      {{Epoch: 0, Digest: 0xbd247ba81c391d8b}, {Epoch: 1, Digest: 0xce9cc68e38997f7a}},
	"lpndca":   {{Epoch: 0, Digest: 0x530cdcaa7c47d98a}},
	"ndca":     {{Epoch: 0, Digest: 0x06ba7e21a9fa4855}},
	"pndca":    {{Epoch: 0, Digest: 0x749d043cf71d8f98}},
	"rsm":      {{Epoch: 0, Digest: 0x7c6dc45232e29f4b}},
	"syncndca": {{Epoch: 0, Digest: 0x0393883992696d6c}},
	"typepart": {{Epoch: 0, Digest: 0x840d489b562d1186}},
	"vssm":     {{Epoch: 0, Digest: 0x40a843531acc2742}},
	"ziff":     {{Epoch: 0, Digest: 0x3e4f56ce45bbea49}},
}

// A trajectory pin may move only with a new epoch: every engine's
// history must end at its registry epoch with the digest of its current
// pins, and epochs must strictly increase down the history.
func TestEpochHistoryMatchesPins(t *testing.T) {
	for _, name := range parsurf.Engines() {
		rows := epochHistory[name]
		if len(rows) == 0 {
			t.Errorf("%s has no epoch history; add the row cmd/goldengen prints", name)
			continue
		}
		for i := 1; i < len(rows); i++ {
			if rows[i].Epoch <= rows[i-1].Epoch {
				t.Errorf("%s history row %d has epoch %d after epoch %d; epochs must strictly increase",
					name, i, rows[i].Epoch, rows[i-1].Epoch)
			}
		}
		last := rows[len(rows)-1]
		spec, _ := parsurf.LookupEngine(name)
		if last.Epoch != spec.Epoch {
			t.Errorf("%s history ends at epoch %d, its registry epoch is %d", name, last.Epoch, spec.Epoch)
		}
		if d := goldentrace.Digest(name, goldenTraces[name], modelTraces); d != last.Digest {
			t.Errorf("%s pins digest 0x%016x, history ends at 0x%016x: a pin moved without a new epoch — "+
				"bump the engine's registry Epoch and append the row cmd/goldengen prints", name, d, last.Digest)
		}
	}
	for name := range epochHistory {
		if _, ok := parsurf.LookupEngine(name); !ok {
			t.Errorf("epoch history names unregistered engine %q", name)
		}
	}
}

// checkpointAt runs a session of spec for a few steps and returns its
// checkpoint.
func checkpointAt(t *testing.T, spec *parsurf.SessionSpec) []byte {
	t.Helper()
	sess, err := spec.Session()
	if err != nil {
		t.Fatal(err)
	}
	goldentrace.Fingerprint(sess.Engine(), 5)
	var buf bytes.Buffer
	if err := sess.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ResumeSession refuses a checkpoint stamped at another epoch of its
// own engine, in both directions, and accepts one at the same epoch.
func TestResumeRefusesOtherEpoch(t *testing.T) {
	for _, name := range parsurf.Engines() {
		t.Run(name, func(t *testing.T) {
			spec := checkpointSpec(t, name)
			es, _ := parsurf.LookupEngine(name)
			bumped := parsurf.SpecAtEpoch(spec, es.Epoch+1)
			ck, ckBumped := checkpointAt(t, spec), checkpointAt(t, bumped)
			if _, err := parsurf.ResumeSession(spec, bytes.NewReader(ck)); err != nil {
				t.Fatalf("same-epoch checkpoint refused: %v", err)
			}
			for _, tc := range []struct {
				dir  string
				spec *parsurf.SessionSpec
				ck   []byte
			}{{"older checkpoint", bumped, ck}, {"newer checkpoint", spec, ckBumped}} {
				_, err := parsurf.ResumeSession(tc.spec, bytes.NewReader(tc.ck))
				if err == nil || !strings.Contains(err.Error(), "spec hash") {
					t.Errorf("%s: resume error %v, want a spec hash mismatch", tc.dir, err)
				}
			}
		})
	}
}

// Bumping one engine's epoch retires that engine's spec hashes, job
// content hashes and checkpoints and no other engine's: for every
// engine X, with X's specs rebuilt at epoch+1, every other engine's
// Hash, single-spec job hash and checkpoint acceptance are unchanged,
// X's all move, and a job mixing every engine moves too.
func TestEpochBumpRetiresOnlyItsEngine(t *testing.T) {
	m, err := job.NewManagerWithStore(1, 1024, store.NewMem())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	jobHash := func(specs ...*parsurf.SessionSpec) string {
		t.Helper()
		j, err := m.Submit(job.Request{Specs: specs, Until: 0.5, Every: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return j.Hash()
	}
	names := parsurf.Engines()
	specs := map[string]*parsurf.SessionSpec{}
	hashes, jobs, cks := map[string]string{}, map[string]string{}, map[string][]byte{}
	var all []*parsurf.SessionSpec
	for _, name := range names {
		specs[name] = checkpointSpec(t, name)
		hashes[name] = specs[name].Hash()
		jobs[name] = jobHash(specs[name])
		cks[name] = checkpointAt(t, specs[name])
		all = append(all, specs[name])
	}
	allJob := jobHash(all...)

	for _, x := range names {
		t.Run(x, func(t *testing.T) {
			es, _ := parsurf.LookupEngine(x)
			world := map[string]*parsurf.SessionSpec{}
			var bumpedAll []*parsurf.SessionSpec
			for _, name := range names {
				world[name] = specs[name]
				if name == x {
					world[name] = parsurf.SpecAtEpoch(specs[name], es.Epoch+1)
				}
				bumpedAll = append(bumpedAll, world[name])
			}
			for _, name := range names {
				sp, moved := world[name], name == x
				if got := sp.Hash() != hashes[name]; got != moved {
					t.Errorf("%s Hash moved = %v after bumping %s", name, got, x)
				}
				if got := jobHash(sp) != jobs[name]; got != moved {
					t.Errorf("%s job hash moved = %v after bumping %s", name, got, x)
				}
				_, err := parsurf.ResumeSession(sp, bytes.NewReader(cks[name]))
				if refused := err != nil; refused != moved {
					t.Errorf("%s checkpoint refused = %v after bumping %s (%v)", name, refused, x, err)
				}
			}
			if jobHash(bumpedAll...) == allJob {
				t.Errorf("a job over every engine kept its content hash after bumping %s", x)
			}
		})
	}
}
