package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// openBoth runs a subtest against the filesystem store and the
// in-memory one: the interface contract is one suite.
func openBoth(t *testing.T, f func(t *testing.T, s Store)) {
	t.Helper()
	t.Run("fs", func(t *testing.T) {
		s, err := OpenFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		f(t, s)
	})
	t.Run("mem", func(t *testing.T) {
		f(t, NewMem())
	})
}

func TestJobRecordRoundTrip(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		rec := &JobRecord{
			ID:        "job-7",
			Seq:       7,
			Hash:      "abc123",
			State:     "queued",
			Submitted: 12345,
			Request:   json.RawMessage(`{"until":5}`),
		}
		if err := s.PutJob(rec); err != nil {
			t.Fatal(err)
		}
		got, err := s.GetJob("job-7")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("round trip: got %+v, want %+v", got, rec)
		}
		// Overwrite wins.
		rec.State = "done"
		rec.Cached = true
		if err := s.PutJob(rec); err != nil {
			t.Fatal(err)
		}
		got, err = s.GetJob("job-7")
		if err != nil {
			t.Fatal(err)
		}
		if got.State != "done" || !got.Cached {
			t.Fatalf("overwrite lost: %+v", got)
		}
	})
}

func TestMissingKeysAreErrNotFound(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		if _, err := s.GetJob("job-404"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing job: %v, want ErrNotFound", err)
		}
		if _, err := s.GetResult("deadbeef"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing result: %v, want ErrNotFound", err)
		}
	})
}

func TestResultRoundTripIsByteStable(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		res := &Result{Variants: []Variant{{
			Species: []string{"*", "CO", "O"},
			T:       []float64{0, 0.1, 0.30000000000000004},
			Mean:    [][]float64{{1, 0.5, 1.0 / 3}, {0, 0.25, 0.3}, {0, 0.25, 0.1}},
			Std:     [][]float64{{0, 0.01, 0.002}, {0, 0, 0}, {0, 0, 0}},
		}}}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutResult("cafe01", res); err != nil {
			t.Fatal(err)
		}
		got, err := s.GetResult("cafe01")
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(want) {
			t.Fatalf("stored result not byte-identical:\n got %s\nwant %s", out, want)
		}
	})
}

func TestJobsListsEverything(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		for _, id := range []string{"job-1", "job-2", "job-3"} {
			if err := s.PutJob(&JobRecord{ID: id, State: "queued"}); err != nil {
				t.Fatal(err)
			}
		}
		recs, err := s.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, r := range recs {
			ids = append(ids, r.ID)
		}
		sort.Strings(ids)
		if !reflect.DeepEqual(ids, []string{"job-1", "job-2", "job-3"}) {
			t.Fatalf("listed %v", ids)
		}
	})
}

// Listings come back in lexical key order from both backends: the
// filesystem store inherits ReadDir's sorted listing, and the memory
// store must not leak Go's randomized map iteration order. The
// assertions deliberately do NOT sort — the order IS the contract.
// Regression test for a surflint:maporder finding.
func TestListingsAreSorted(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		insert := []string{"job-09", "job-03", "job-17", "job-01", "job-12", "job-05", "job-14", "job-02"}
		for _, id := range insert {
			if err := s.PutJob(&JobRecord{ID: id, State: "queued"}); err != nil {
				t.Fatal(err)
			}
		}
		want := append([]string(nil), insert...)
		sort.Strings(want)
		// Several trials: map iteration order changes run to run, so one
		// lucky ordering must not mask a regression.
		for trial := 0; trial < 8; trial++ {
			recs, err := s.Jobs()
			if err != nil {
				t.Fatal(err)
			}
			var ids []string
			for _, r := range recs {
				ids = append(ids, r.ID)
			}
			if !reflect.DeepEqual(ids, want) {
				t.Fatalf("trial %d: Jobs() order %v, want sorted %v", trial, ids, want)
			}
		}

		slots := []string{"007", "002", "013", "001", "005", "010", "003", "008"}
		for _, slot := range slots {
			if err := s.PutCheckpoint("hash1", slot, []byte{1}); err != nil {
				t.Fatal(err)
			}
		}
		wantSlots := append([]string(nil), slots...)
		sort.Strings(wantSlots)
		for trial := 0; trial < 8; trial++ {
			got, err := s.Checkpoints("hash1")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, wantSlots) {
				t.Fatalf("trial %d: Checkpoints() order %v, want sorted %v", trial, got, wantSlots)
			}
		}
	})
}

func TestInvalidKeysRejected(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		for _, id := range []string{"", "../evil", "a/b", ".hidden"} {
			if err := s.PutJob(&JobRecord{ID: id}); err == nil {
				t.Errorf("PutJob accepted key %q", id)
			}
			if _, err := s.GetJob(id); err == nil || errors.Is(err, ErrNotFound) {
				t.Errorf("GetJob(%q): %v, want a key error", id, err)
			}
		}
	})
}

// A store reopened on the same directory serves what was written — the
// durability half of the contract the in-memory store cannot cover.
func TestFSReopenSurvives(t *testing.T) {
	dir := t.TempDir()
	s1, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.PutJob(&JobRecord{ID: "job-1", State: "done", Hash: "h1"}); err != nil {
		t.Fatal(err)
	}
	if err := s1.PutResult("h1", &Result{Variants: []Variant{{Species: []string{"*"}}}}); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := s2.GetJob("job-1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != "done" || rec.Hash != "h1" {
		t.Fatalf("reopened record %+v", rec)
	}
	if _, err := s2.GetResult("h1"); err != nil {
		t.Fatal(err)
	}
}

// openBothCorruptible is openBoth plus backdoors that corrupt a stored
// job record or result blob in place — overwriting the filesystem file,
// or putting torn JSON straight into the Mem backend under the record's
// key — for the recovery tests that must hold on both backends.
func openBothCorruptible(t *testing.T, f func(t *testing.T, s Store, corruptJob, corruptResult func(key string))) {
	t.Helper()
	torn := []byte(`{"id":"job-1","state":"que`)
	t.Run("fs", func(t *testing.T) {
		dir := t.TempDir()
		s, err := OpenFS(dir)
		if err != nil {
			t.Fatal(err)
		}
		overwrite := func(sub, name string) {
			if err := os.WriteFile(filepath.Join(dir, sub, name+".json"), torn, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		f(t, s,
			func(id string) { overwrite("jobs", id) },
			func(hash string) { overwrite("results", hash) })
	})
	t.Run("mem", func(t *testing.T) {
		b := new(Mem)
		put := func(key string) {
			if err := b.Put(key, torn); err != nil {
				t.Fatal(err)
			}
		}
		f(t, New(b),
			func(id string) { put("jobs/" + id + ".json") },
			func(hash string) { put("results/" + hash + ".json") })
	})
}

// A job record torn by a crash that bypassed the atomic-rename path is
// skipped by listings (one bad file must not take down boot recovery)
// while a direct read of it refuses with a clear error — and a torn
// result blob likewise refuses rather than serving garbage. Neither
// path may panic.
func TestTornRecordsSkippedOrRefused(t *testing.T) {
	openBothCorruptible(t, func(t *testing.T, s Store, corruptJob, corruptResult func(string)) {
		for _, id := range []string{"job-1", "job-2", "job-3"} {
			if err := s.PutJob(&JobRecord{ID: id, State: "queued"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.PutResult("cafe01", &Result{Variants: []Variant{{Species: []string{"*"}}}}); err != nil {
			t.Fatal(err)
		}
		corruptJob("job-2")
		corruptResult("cafe01")

		recs, err := s.Jobs()
		if err != nil {
			t.Fatalf("listing with a torn record: %v", err)
		}
		var ids []string
		for _, r := range recs {
			ids = append(ids, r.ID)
		}
		sort.Strings(ids)
		if !reflect.DeepEqual(ids, []string{"job-1", "job-3"}) {
			t.Fatalf("listing with a torn record returned %v, want the two intact ones", ids)
		}
		if _, err := s.GetJob("job-2"); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("reading the torn record: %v, want a decode error", err)
		}
		if _, err := s.GetResult("cafe01"); err == nil || errors.Is(err, ErrNotFound) {
			t.Fatalf("reading the torn result: %v, want a decode error", err)
		}
	})
}

// Checkpoint blobs round-trip bytes exactly, list per hash, overwrite
// per slot, and delete as a group.
func TestCheckpointRoundTrip(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		if err := s.PutCheckpoint("h1", "0", []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if err := s.PutCheckpoint("h1", "1", []byte{4}); err != nil {
			t.Fatal(err)
		}
		// A sibling hash sharing h1's prefix must survive h1's delete.
		if err := s.PutCheckpoint("h10", "0", []byte{9}); err != nil {
			t.Fatal(err)
		}
		got, err := s.GetCheckpoint("h1", "0")
		if err != nil || !reflect.DeepEqual(got, []byte{1, 2, 3}) {
			t.Fatalf("GetCheckpoint: %v, %v", got, err)
		}
		// Overwrite wins.
		if err := s.PutCheckpoint("h1", "0", []byte{7, 7}); err != nil {
			t.Fatal(err)
		}
		if got, _ = s.GetCheckpoint("h1", "0"); !reflect.DeepEqual(got, []byte{7, 7}) {
			t.Fatalf("overwrite lost: %v", got)
		}
		slots, err := s.Checkpoints("h1")
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(slots)
		if !reflect.DeepEqual(slots, []string{"0", "1"}) {
			t.Fatalf("Checkpoints(h1) = %v", slots)
		}
		if err := s.DeleteCheckpoints("h1"); err != nil {
			t.Fatal(err)
		}
		if slots, err = s.Checkpoints("h1"); err != nil || len(slots) != 0 {
			t.Fatalf("after delete: %v, %v", slots, err)
		}
		if _, err := s.GetCheckpoint("h1", "0"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted checkpoint: %v, want ErrNotFound", err)
		}
		// Other hashes untouched; unknown hashes list empty and delete as
		// a no-op.
		if got, err := s.GetCheckpoint("h10", "0"); err != nil || !reflect.DeepEqual(got, []byte{9}) {
			t.Fatalf("sibling checkpoint after delete: %v, %v", got, err)
		}
		if slots, err = s.Checkpoints("h10"); err != nil || !reflect.DeepEqual(slots, []string{"0"}) {
			t.Fatalf("Checkpoints(h10) after delete: %v, %v", slots, err)
		}
		if slots, err = s.Checkpoints("nope"); err != nil || len(slots) != 0 {
			t.Fatalf("unknown hash: %v, %v", slots, err)
		}
		if err := s.DeleteCheckpoints("nope"); err != nil {
			t.Fatal(err)
		}
		// Key validation mirrors jobs/results.
		if err := s.PutCheckpoint("../evil", "0", nil); err == nil {
			t.Error("PutCheckpoint accepted a traversal hash")
		}
		if err := s.PutCheckpoint("h1", "../evil", nil); err == nil {
			t.Error("PutCheckpoint accepted a traversal slot")
		}
		if err := s.PutCheckpoint("h1", "", nil); err == nil {
			t.Error("PutCheckpoint accepted an empty slot")
		}
	})
}

// Shard records round-trip, overwrite per id, list sorted per job, and
// delete as a group together with their result blobs.
func TestShardRoundTrip(t *testing.T) {
	openBoth(t, func(t *testing.T, s Store) {
		recs := []*ShardRecord{
			{ID: "v0-8-16", JobID: "job-1", Variant: 0, Lo: 8, Hi: 16, State: "queued"},
			{ID: "v0-0-8", JobID: "job-1", Variant: 0, Lo: 0, Hi: 8, State: "queued"},
			{ID: "v1-0-8", JobID: "job-1", Variant: 1, Lo: 0, Hi: 8, State: "leased", Attempts: 1},
			// A sibling job sharing job-1's prefix must survive job-1's delete.
			{ID: "v0-0-8", JobID: "job-10", Variant: 0, Lo: 0, Hi: 8, State: "queued"},
		}
		for _, rec := range recs {
			if err := s.PutShard(rec); err != nil {
				t.Fatal(err)
			}
		}
		got, err := s.Shards("job-1")
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, r := range got {
			ids = append(ids, r.ID)
		}
		if !reflect.DeepEqual(ids, []string{"v0-0-8", "v0-8-16", "v1-0-8"}) {
			t.Fatalf("Shards(job-1) order %v, want sorted ids", ids)
		}
		if got[2].State != "leased" || got[2].Attempts != 1 {
			t.Fatalf("record content lost: %+v", got[2])
		}
		// Overwrite wins.
		recs[0].State = "done"
		if err := s.PutShard(recs[0]); err != nil {
			t.Fatal(err)
		}
		got, _ = s.Shards("job-1")
		if got[1].State != "done" {
			t.Fatalf("overwrite lost: %+v", got[1])
		}

		// Result blobs round-trip bytes exactly and miss as ErrNotFound.
		if err := s.PutShardResult("job-1", "v0-0-8", []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		if err := s.PutShardResult("job-10", "v0-0-8", []byte{4}); err != nil {
			t.Fatal(err)
		}
		blob, err := s.GetShardResult("job-1", "v0-0-8")
		if err != nil || !reflect.DeepEqual(blob, []byte{1, 2, 3}) {
			t.Fatalf("GetShardResult: %v, %v", blob, err)
		}
		if _, err := s.GetShardResult("job-1", "v0-8-16"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("missing shard result: %v, want ErrNotFound", err)
		}

		// Delete removes records and blobs for the job only.
		if err := s.DeleteShards("job-1"); err != nil {
			t.Fatal(err)
		}
		if got, err = s.Shards("job-1"); err != nil || len(got) != 0 {
			t.Fatalf("after delete: %v, %v", got, err)
		}
		if _, err := s.GetShardResult("job-1", "v0-0-8"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("deleted shard result: %v, want ErrNotFound", err)
		}
		if got, err = s.Shards("job-10"); err != nil || len(got) != 1 {
			t.Fatalf("other job's shards touched: %v, %v", got, err)
		}
		if blob, err := s.GetShardResult("job-10", "v0-0-8"); err != nil || !reflect.DeepEqual(blob, []byte{4}) {
			t.Fatalf("other job's shard result touched: %v, %v", blob, err)
		}
		// Unknown jobs list empty and delete as a no-op.
		if got, err = s.Shards("job-404"); err != nil || len(got) != 0 {
			t.Fatalf("unknown job: %v, %v", got, err)
		}
		if err := s.DeleteShards("job-404"); err != nil {
			t.Fatal(err)
		}
		// Key validation mirrors the other families.
		if err := s.PutShard(&ShardRecord{ID: "../evil", JobID: "job-1"}); err == nil {
			t.Error("PutShard accepted a traversal id")
		}
		if err := s.PutShard(&ShardRecord{ID: "s1", JobID: ""}); err == nil {
			t.Error("PutShard accepted an empty job id")
		}
		if err := s.PutShardResult("job-1", "", nil); err == nil {
			t.Error("PutShardResult accepted an empty shard id")
		}
	})
}

// The fault wrapper fails exactly the mutation its hook names, leaves
// reads alone, and counts attempts.
func TestFaultyInjectsOnNthMutation(t *testing.T) {
	fb := &Faulty{Backend: new(Mem), Hook: FailNth(2)}
	f := New(fb)
	if err := f.PutJob(&JobRecord{ID: "job-1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := f.PutJob(&JobRecord{ID: "job-2", State: "queued"}); !errors.Is(err, ErrInjected) {
		t.Fatalf("second mutation: %v, want ErrInjected", err)
	}
	// The failed write never reached the inner store.
	if _, err := f.GetJob("job-2"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job-2 after injected failure: %v, want ErrNotFound", err)
	}
	if _, err := f.GetJob("job-1"); err != nil {
		t.Fatalf("read through fault wrapper: %v", err)
	}
	if err := f.PutCheckpoint("h1", "0", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if fb.Mutations() != 3 {
		t.Fatalf("Mutations() = %d, want 3", fb.Mutations())
	}

	byOp := New(&Faulty{Backend: new(Mem), Hook: FailOps("put-checkpoint", 0)})
	if err := byOp.PutJob(&JobRecord{ID: "job-1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := byOp.PutCheckpoint("h1", "0", []byte{1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("op-targeted injection: %v, want ErrInjected", err)
	}
}

// Every mutating Store method reaches the hook with exactly the tags the
// table in Faulty's doc comment lists, in order, and no read reaches the
// hook or advances Mutations.
func TestFaultyTagsMatchDocTable(t *testing.T) {
	want := faultyDocTable(t)
	var got []string
	fb := &Faulty{Backend: new(Mem), Hook: func(_ int, op string) error {
		got = append(got, op)
		return nil
	}}
	s := New(fb)
	calls := []struct {
		method string
		call   func() error
	}{
		{"PutJob", func() error { return s.PutJob(&JobRecord{ID: "job-1", State: "queued"}) }},
		{"PutResult", func() error { return s.PutResult("h1", &Result{}) }},
		{"PutCheckpoint", func() error { return s.PutCheckpoint("h1", "0", []byte{1}) }},
		{"DeleteCheckpoints", func() error { return s.DeleteCheckpoints("h1") }},
		{"PutShard", func() error { return s.PutShard(&ShardRecord{ID: "v0-0-8", JobID: "job-1"}) }},
		{"PutShardResult", func() error { return s.PutShardResult("job-1", "v0-0-8", []byte{2}) }},
		{"DeleteShards", func() error { return s.DeleteShards("job-1") }},
	}
	if len(calls) != len(want) {
		t.Fatalf("doc table lists %d methods %v, test calls %d", len(want), want, len(calls))
	}
	total := 0
	for _, c := range calls {
		got = nil
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.method, err)
		}
		if !reflect.DeepEqual(got, want[c.method]) {
			t.Errorf("%s: hook saw %v, doc table says %v", c.method, got, want[c.method])
		}
		total += len(got)
	}
	if fb.Mutations() != total {
		t.Fatalf("Mutations() = %d after %d tagged mutations", fb.Mutations(), total)
	}

	if err := s.PutJob(&JobRecord{ID: "job-2", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint("h2", "0", []byte{3}); err != nil {
		t.Fatal(err)
	}
	before := fb.Mutations()
	got = nil
	s.GetJob("job-2")
	s.Jobs()
	s.GetResult("h1")
	s.GetCheckpoint("h2", "0")
	s.Checkpoints("h2")
	s.Shards("job-1")
	s.GetShardResult("job-1", "v0-0-8")
	if fb.Mutations() != before || len(got) != 0 {
		t.Fatalf("reads advanced Mutations %d -> %d, hook saw %v", before, fb.Mutations(), got)
	}
}

// faultyDocTable parses the method-to-tags table out of Faulty's doc
// comment, so the test pins the documentation, not a copy of it.
func faultyDocTable(t *testing.T) map[string][]string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "fault.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	table := make(map[string][]string)
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.TYPE || gd.Specs[0].(*ast.TypeSpec).Name.Name != "Faulty" {
			continue
		}
		for _, line := range strings.Split(gd.Doc.Text(), "\n") {
			if !strings.HasPrefix(line, "\t") {
				continue
			}
			fields := strings.Fields(strings.ReplaceAll(line, ",", " "))
			table[fields[0]] = fields[1:]
		}
	}
	if len(table) == 0 {
		t.Fatal("no tag table found in Faulty's doc comment")
	}
	return table
}

// Goroutines writing, reading, listing and deleting through one store at
// once see their own writes and lose none of the others'; run with -race.
func TestConcurrentUse(t *testing.T) {
	const goroutines, n = 4, 20
	hammer := func(t *testing.T, s Store) {
		var wg sync.WaitGroup
		for g := range goroutines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				hash := fmt.Sprintf("h%d", g)
				for i := range n {
					slot := strconv.Itoa(i)
					if err := s.PutCheckpoint(hash, slot, []byte{byte(i)}); err != nil {
						t.Error(err)
						return
					}
					if got, err := s.GetCheckpoint(hash, slot); err != nil || !reflect.DeepEqual(got, []byte{byte(i)}) {
						t.Errorf("GetCheckpoint(%s, %s) = %v, %v", hash, slot, got, err)
						return
					}
					if err := s.PutJob(&JobRecord{ID: fmt.Sprintf("job-%d-%d", g, i), State: "queued"}); err != nil {
						t.Error(err)
						return
					}
					if _, err := s.Jobs(); err != nil {
						t.Error(err)
						return
					}
				}
				if slots, err := s.Checkpoints(hash); err != nil || len(slots) != n {
					t.Errorf("Checkpoints(%s) = %d slots, %v; want %d", hash, len(slots), err, n)
				}
				if err := s.DeleteCheckpoints(hash); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if jobs, err := s.Jobs(); err != nil || len(jobs) != goroutines*n {
			t.Fatalf("Jobs() = %d records, %v; want %d", len(jobs), err, goroutines*n)
		}
	}
	openBoth(t, hammer)
	t.Run("faulty", func(t *testing.T) {
		fb := &Faulty{Backend: new(Mem)}
		hammer(t, New(fb))
		if want := goroutines * (2*n + 1); fb.Mutations() != want {
			t.Fatalf("Mutations() = %d, want %d", fb.Mutations(), want)
		}
	})
}

// Leftover temp files from a crash mid-write are invisible to listings.
func TestFSIgnoresTempDebris(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutJob(&JobRecord{ID: "job-1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	debris := filepath.Join(dir, "jobs", ".tmp-crashed")
	if err := os.WriteFile(debris, []byte("{partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].ID != "job-1" {
		t.Fatalf("listing with debris: %+v", recs)
	}
}
