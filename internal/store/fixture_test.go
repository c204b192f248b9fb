package store

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testdata/datadir is a data directory written by the store as it was
// before Store moved onto a Backend (FS, Mem and Faulty each implemented
// all of Store). It holds a done job and its result, a queued job whose
// hash has two checkpoint slots, a running fleet job with one done and
// one queued shard and the done shard's result blob, plus crash debris
// added by hand: a .tmp-* temp file and a torn job record.
const fixtureDir = "testdata/datadir"

const (
	fixtureHashDone   = "a4c3ed04a95a3da14a9d235c83d868bed7c0f45cf7f3faa751ee8f50598d2211"
	fixtureHashQueued = "d36be6494248ee06ac18f38ea1119dfe4699fdcfcbbcc30a2e4f1ccbce68dfac"
	fixtureHashFleet  = "5eb2ce291c7d227dd684ec83f9ddc05776e2fe9a0c4e62927b4592383e66fb28"
)

var (
	fixtureJobs = []*JobRecord{
		{ID: "job-1", Seq: 1, Hash: fixtureHashDone, State: "done", Submitted: 1760000000000000001,
			Request: json.RawMessage(`{"specs":[{"lattice":{"l0":16,"l1":16},"engine":{"name":"ziff","y":0.52},"seed":7}],"replicas":2,"workers":1,"until":5,"every":1}`)},
		{ID: "job-2", Seq: 2, Hash: fixtureHashQueued, State: "queued", Submitted: 1760000000000000002,
			Request: json.RawMessage(`{"specs":[{"lattice":{"l0":24,"l1":24},"engine":{"name":"ziff","y":0.51},"seed":9}],"replicas":4,"workers":2,"until":2000,"every":2}`)},
		{ID: "job-3", Seq: 3, Hash: fixtureHashFleet, State: "running", Attempts: 1, Submitted: 1760000000000000003,
			Deadline: 1760000060000000003,
			Request:  json.RawMessage(`{"specs":[{"lattice":{"l0":32,"l1":32},"engine":{"name":"ziff","y":0.5},"seed":42}],"replicas":4,"workers":2,"until":40,"every":5}`)},
	}
	fixtureResult = &Result{Variants: []Variant{{
		Species: []string{"*", "CO", "O"},
		T:       []float64{0, 1, 2.0000000000000004},
		Mean:    [][]float64{{1, 0.5, 1.0 / 3}, {0, 0.25, 0.30000000000000004}, {0, 0.25, 0.1}},
		Std:     [][]float64{{0, 0.01, 0.002}, {0, 1e-17, 0}, {0, 0, 5e-324}},
	}}}
	fixtureCheckpoints = map[string][]byte{
		"0": {0x00, 0x01, 0xfe, 0xff, '\n', 0x80},
		"1": []byte("replica-1 snapshot\x00\xc3\x28"),
	}
	fixtureShards = []*ShardRecord{
		{ID: "v0-0-2", JobID: "job-3", Variant: 0, Lo: 0, Hi: 2, State: "done"},
		{ID: "v0-2-4", JobID: "job-3", Variant: 0, Lo: 2, Hi: 4, State: "queued",
			Attempts: 1, Requeues: 1, Error: "lease of w1 expired"},
	}
	fixtureShardResult = []byte("PSR1\x00\x02\x00\x00\x00\x10\xff\x7f shard payload")
)

// readTree maps every regular file under root to its bytes, keyed by
// slash-separated relative path.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := make(map[string][]byte)
	err := fs.WalkDir(os.DirFS(root), ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		files[p], err = os.ReadFile(filepath.Join(root, filepath.FromSlash(p)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// A data directory written by the earlier store reads back through
// OpenFS record for record, and re-putting every record rewrites the
// directory byte for byte: the layout needs no migration.
func TestFixtureDataDirRecovers(t *testing.T) {
	want := readTree(t, fixtureDir)
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(fixtureDir)); err != nil {
		t.Fatal(err)
	}
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Jobs skips the torn job-4 and the temp file; GetJob on job-4 is a
	// decode error, not a miss.
	jobs, err := s.Jobs()
	if err != nil || !reflect.DeepEqual(jobs, fixtureJobs) {
		t.Fatalf("Jobs() = %+v, %v; want %+v", jobs, err, fixtureJobs)
	}
	for _, rec := range fixtureJobs {
		if got, err := s.GetJob(rec.ID); err != nil || !reflect.DeepEqual(got, rec) {
			t.Fatalf("GetJob(%s) = %+v, %v; want %+v", rec.ID, got, err, rec)
		}
	}
	if _, err := s.GetJob("job-4"); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("GetJob(job-4) on a torn record: %v, want a decode error", err)
	}
	res, err := s.GetResult(fixtureHashDone)
	if err != nil || !reflect.DeepEqual(res, fixtureResult) {
		t.Fatalf("GetResult = %+v, %v; want %+v", res, err, fixtureResult)
	}
	slots, err := s.Checkpoints(fixtureHashQueued)
	if err != nil || !reflect.DeepEqual(slots, []string{"0", "1"}) {
		t.Fatalf("Checkpoints = %v, %v; want [0 1]", slots, err)
	}
	for slot, blob := range fixtureCheckpoints {
		if got, err := s.GetCheckpoint(fixtureHashQueued, slot); err != nil || !reflect.DeepEqual(got, blob) {
			t.Fatalf("GetCheckpoint(%s) = %q, %v; want %q", slot, got, err, blob)
		}
	}
	shards, err := s.Shards("job-3")
	if err != nil || !reflect.DeepEqual(shards, fixtureShards) {
		t.Fatalf("Shards(job-3) = %+v, %v; want %+v", shards, err, fixtureShards)
	}
	if got, err := s.GetShardResult("job-3", "v0-0-2"); err != nil || !reflect.DeepEqual(got, fixtureShardResult) {
		t.Fatalf("GetShardResult(v0-0-2) = %q, %v; want %q", got, err, fixtureShardResult)
	}
	if _, err := s.GetShardResult("job-3", "v0-2-4"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("GetShardResult(v0-2-4): %v, want ErrNotFound", err)
	}

	// Re-put everything that was read: every file comes out byte-identical
	// and no file appears or disappears (the debris stays untouched).
	for _, rec := range jobs {
		if err := s.PutJob(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutResult(fixtureHashDone, res); err != nil {
		t.Fatal(err)
	}
	for _, slot := range slots {
		blob, err := s.GetCheckpoint(fixtureHashQueued, slot)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutCheckpoint(fixtureHashQueued, slot, blob); err != nil {
			t.Fatal(err)
		}
	}
	for _, rec := range shards {
		if err := s.PutShard(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutShardResult("job-3", "v0-0-2", fixtureShardResult); err != nil {
		t.Fatal(err)
	}
	if got := readTree(t, dir); !reflect.DeepEqual(got, want) {
		for p := range want {
			if string(got[p]) != string(want[p]) {
				t.Errorf("%s after re-put:\n got %q\nwant %q", p, got[p], want[p])
			}
		}
		for p := range got {
			if _, ok := want[p]; !ok {
				t.Errorf("re-put left an extra file %s", p)
			}
		}
		t.FailNow()
	}
}

// OpenFS recreates missing family directories, so a data directory that
// lost its empty ones (a copy that drops empty directories, say) still
// opens and lists.
func TestOpenFSCreatesFamilyDirs(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenFS(dir); err != nil {
		t.Fatal(err)
	}
	for _, sub := range []string{"jobs", "results", "checkpoints", "shards", "shardresults"} {
		if fi, err := os.Stat(filepath.Join(dir, sub)); err != nil || !fi.IsDir() {
			t.Errorf("%s: %v", sub, err)
		}
	}
}
