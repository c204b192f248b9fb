// Package store persists surfd jobs and results: a content-addressed
// job/result store behind a small interface.
//
// Job records are keyed by job id and carry the serialized request, so
// a restart can rebuild the manager's job table and re-queue work that
// was interrupted. Result blobs are keyed by the SHA-256 content hash
// of the canonical (spec, run-shape) bytes — the spec's byte-fixed-point
// JSON marshal makes identical workloads hash identically — so the same
// key space doubles as a result cache: a resubmission whose hash matches
// a stored result is served without re-simulating.
//
// The package has one Store implementation, built by New over a Backend.
// A Backend only stores bytes under slash-separated keys: Put, Get,
// sorted List of one directory, and Delete of one directory. Everything
// record-shaped lives above it, once for every family: key validation,
// the key layout, JSON encoding and decoding, and listings that skip
// records which no longer decode. FS keeps the bytes on disk, Mem in
// memory, and Faulty wraps either to inject write failures.
package store

import (
	"encoding/json"
	"errors"
)

// ErrNotFound reports a missing record or blob. Match with errors.Is.
var ErrNotFound = errors.New("store: not found")

// JobRecord is the persisted form of one submitted job: identity,
// lifecycle state, and the serialized request needed to re-run it.
type JobRecord struct {
	// ID is the manager-assigned job id ("job-7").
	ID string `json:"id"`
	// Seq is the numeric submission sequence; restarts resume ids past
	// the highest stored Seq, and listings order by (Submitted, Seq).
	Seq int `json:"seq"`
	// Hash is the content address of the job's (spec, run-shape) bytes;
	// the result blob of a completed job lives under this key.
	Hash string `json:"hash,omitempty"`
	// State is the persisted lifecycle state. A record left at
	// "queued"/"running" by a crash is re-queued on recovery.
	State string `json:"state"`
	// Error is the terminal error text of a failed/cancelled job.
	Error string `json:"error,omitempty"`
	// Cached marks a job answered from the result cache without running.
	Cached bool `json:"cached,omitempty"`
	// Attempts counts how many times the job's run was interrupted by a
	// crash (a record found at "running" on boot). Recovery uses it to
	// quarantine jobs that keep killing the process.
	Attempts int `json:"attempts,omitempty"`
	// Submitted is the submission wall-clock time in Unix nanoseconds.
	Submitted int64 `json:"submitted"`
	// Deadline is the absolute wall-clock deadline (Unix nanoseconds) a
	// running job's sweep must finish by, set when the job first starts
	// and zero for jobs without a duration budget. Recovery keeps the
	// absolute time, so a crash-restarted job honors only its remaining
	// budget instead of getting a fresh one.
	Deadline int64 `json:"deadline,omitempty"`
	// Request is the serialized request (specs plus run shape), exactly
	// what recovery re-queues.
	Request json.RawMessage `json:"request,omitempty"`
}

// ShardRecord is the persisted form of one fleet shard: a (variant,
// replica-range) slice of a job's ensemble with its lease lifecycle.
// The coordinator writes the record ahead of every state transition —
// the same write-ahead discipline as job records — so a restarted
// coordinator rebuilds the shard table exactly: shards recorded done
// re-commit their stored result blobs instead of re-running, everything
// else re-queues.
type ShardRecord struct {
	// ID is the shard id, unique within its job (e.g. "v0-8-16").
	ID string `json:"id"`
	// JobID is the owning job.
	JobID string `json:"jobId"`
	// Variant is the sweep variant (spec index) the shard belongs to.
	Variant int `json:"variant"`
	// Lo and Hi bound the half-open replica index range [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// State is the shard lifecycle state (queued/leased/done/
	// quarantined). Leases are transient: a record found "leased" on
	// recovery re-queues like a "queued" one.
	State string `json:"state"`
	// Worker names the worker holding the shard's lease, while leased.
	Worker string `json:"worker,omitempty"`
	// Attempts counts leases that ended in failure or expiry; a shard
	// past the coordinator's MaxAttempts is quarantined as poison.
	Attempts int `json:"attempts,omitempty"`
	// Requeues counts how many times the shard went back on the queue.
	Requeues int `json:"requeues,omitempty"`
	// Error is the latest failure text reported for the shard.
	Error string `json:"error,omitempty"`
}

// Variant is one variant's merged series in a Result — the same shape
// the HTTP result endpoint serves.
type Variant struct {
	// Species are the column labels, index-aligned with Mean/Std rows.
	Species []string `json:"species"`
	// T is the shared time grid.
	T []float64 `json:"t"`
	// Mean and Std are per-species rows over the grid.
	Mean [][]float64 `json:"mean"`
	Std  [][]float64 `json:"std"`
}

// Result is a completed job's merged output, one entry per sweep
// variant. Values are plain float64 series: JSON round-trips them
// bit-exactly (Go encodes the shortest representation that parses back
// to the same float64), so a result served from disk is byte-identical
// to the one served at completion time.
type Result struct {
	Variants []Variant `json:"variants"`
}

// Store persists job records and result blobs; New builds it over a
// Backend. It is safe for concurrent use. Get methods return ErrNotFound
// (wrapped) for missing keys; Put methods overwrite.
type Store interface {
	// PutJob writes (or overwrites) a job record.
	PutJob(rec *JobRecord) error
	// GetJob reads the record with the given id.
	GetJob(id string) (*JobRecord, error)
	// Jobs lists every stored record in lexical id order. A record that
	// no longer decodes — torn by a crash that bypassed the atomic
	// write — is skipped, so one bad record cannot take down boot
	// recovery; GetJob on its id still reports the decode error.
	Jobs() ([]*JobRecord, error)
	// PutResult writes (or overwrites) the result blob under the hash.
	PutResult(hash string, res *Result) error
	// GetResult reads the result blob under the hash.
	GetResult(hash string) (*Result, error)
	// PutCheckpoint writes (or overwrites) an opaque checkpoint blob for
	// one replica slot of the job with the given content hash.
	PutCheckpoint(hash, slot string, data []byte) error
	// GetCheckpoint reads one checkpoint blob.
	GetCheckpoint(hash, slot string) ([]byte, error)
	// Checkpoints lists the slot keys with a stored checkpoint for the
	// hash, in lexical order. A hash with no checkpoints lists empty
	// without error.
	Checkpoints(hash string) ([]string, error)
	// DeleteCheckpoints removes every checkpoint stored for the hash.
	// Deleting a hash with no checkpoints is a no-op.
	DeleteCheckpoints(hash string) error
	// PutShard writes (or overwrites) a fleet shard record, keyed
	// (JobID, ID).
	PutShard(rec *ShardRecord) error
	// Shards lists the stored shard records of a job in lexical id
	// order, skipping records that no longer decode, like Jobs; a job
	// with no shards lists empty without error.
	Shards(jobID string) ([]*ShardRecord, error)
	// PutShardResult writes (or overwrites) the opaque wire-format
	// result blob of one shard.
	PutShardResult(jobID, shardID string, data []byte) error
	// GetShardResult reads one shard result blob.
	GetShardResult(jobID, shardID string) ([]byte, error)
	// DeleteShards removes every shard record and shard result blob
	// stored for the job. Deleting a job with no shards is a no-op.
	DeleteShards(jobID string) error
}

// Backend stores opaque blobs under slash-separated keys such as
// "jobs/job-7.json"; a key's directory is everything before its last
// slash. Implementations must be safe for concurrent use.
type Backend interface {
	// Put writes (or overwrites) the blob under key.
	Put(key string, data []byte) error
	// Get reads the blob under key, or returns a wrapped ErrNotFound.
	Get(key string) ([]byte, error)
	// List returns the sorted names of the blobs directly under dir,
	// skipping dot-files. A missing dir lists empty without error.
	List(dir string) ([]string, error)
	// Delete removes every blob directly under dir; the Store never
	// nests keys deeper below a directory it deletes. Deleting a missing
	// dir is a no-op.
	Delete(dir string) error
}
