package store

import (
	"errors"
	"strings"
	"sync/atomic"
)

// ErrInjected is the error a Faulty backend's hooks return to simulate a
// failed write. Match with errors.Is.
var ErrInjected = errors.New("store: injected fault")

// Faulty wraps a Backend and injects failures into its mutations, for
// crash and torn-write tests; wrap it with New to get a Store. Before
// each Put or Delete it calls Hook with the 1-based running mutation
// count and an operation tag named after the key's record family. Each
// mutating Store method produces these tags, in order:
//
//	PutJob             put-job
//	PutResult          put-result
//	PutCheckpoint      put-checkpoint
//	DeleteCheckpoints  delete-checkpoints
//	PutShard           put-shard
//	PutShardResult     put-shard-result
//	DeleteShards       delete-shards, delete-shard-results
//
// A non-nil return aborts the operation with that error before the
// inner backend sees it — modelling a crash between the caller's
// decision to persist and the bytes reaching disk. Reads (Get, List)
// pass straight through and do not count.
//
// The zero Hook injects nothing, so a Faulty with only Backend set is a
// transparent proxy whose Mutations count still advances.
type Faulty struct {
	Backend
	Hook func(n int, op string) error

	n atomic.Int64
}

func family(key string) string {
	top, _, _ := strings.Cut(key, "/")
	return families[top]
}

// FailNth returns a hook that fails exactly the nth mutation (1-based)
// with ErrInjected and lets every other one through.
func FailNth(n int) func(int, string) error {
	return func(got int, _ string) error {
		if got == n {
			return ErrInjected
		}
		return nil
	}
}

// FailOps returns a hook that fails every mutation with the given
// operation tag once at least skip earlier mutations have happened.
func FailOps(op string, skip int) func(int, string) error {
	return func(n int, got string) error {
		if got == op && n > skip {
			return ErrInjected
		}
		return nil
	}
}

// Mutations reports how many mutating operations have been attempted.
func (f *Faulty) Mutations() int { return int(f.n.Load()) }

func (f *Faulty) check(op string) error {
	n := int(f.n.Add(1))
	if f.Hook == nil {
		return nil
	}
	return f.Hook(n, op)
}

// Put implements Backend.
func (f *Faulty) Put(key string, data []byte) error {
	if err := f.check("put-" + family(key)); err != nil {
		return err
	}
	return f.Backend.Put(key, data)
}

// Delete implements Backend.
func (f *Faulty) Delete(dir string) error {
	if err := f.check("delete-" + family(dir) + "s"); err != nil {
		return err
	}
	return f.Backend.Delete(dir)
}
