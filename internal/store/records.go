package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// records is the Store implementation. Its Backend keys are the
// filesystem layout's paths, relative to the data directory:
//
//	jobs/<id>.json              one record per job
//	results/<hash>.json         one blob per content hash
//	checkpoints/<hash>/<slot>   one checkpoint blob per replica slot
//	shards/<job>/<id>.json      one record per fleet shard
//	shardresults/<job>/<id>     one wire blob per delivered shard
type records struct{ b Backend }

// families maps each record family's top-level key directory (OpenFS
// creates them) to the name Faulty's operation tags use for it.
var families = map[string]string{
	"jobs":         "job",
	"results":      "result",
	"checkpoints":  "checkpoint",
	"shards":       "shard",
	"shardresults": "shard-result",
}

// New returns the Store that keeps its records in b.
func New(b Backend) Store { return records{b} }

// PutJob implements Store.
func (r records) PutJob(rec *JobRecord) error {
	if err := validKey("job", rec.ID); err != nil {
		return err
	}
	return putJSON(r.b, "jobs/"+rec.ID+".json", rec)
}

// GetJob implements Store.
func (r records) GetJob(id string) (*JobRecord, error) {
	if err := validKey("job", id); err != nil {
		return nil, err
	}
	return getJSON[JobRecord](r.b, "jobs/"+id+".json")
}

// Jobs implements Store.
func (r records) Jobs() ([]*JobRecord, error) { return listJSON[JobRecord](r.b, "jobs") }

// PutResult implements Store.
func (r records) PutResult(hash string, res *Result) error {
	if err := validKey("result", hash); err != nil {
		return err
	}
	return putJSON(r.b, "results/"+hash+".json", res)
}

// GetResult implements Store.
func (r records) GetResult(hash string) (*Result, error) {
	if err := validKey("result", hash); err != nil {
		return nil, err
	}
	return getJSON[Result](r.b, "results/"+hash+".json")
}

// PutCheckpoint implements Store.
func (r records) PutCheckpoint(hash, slot string, data []byte) error {
	if err := errors.Join(validKey("checkpoint hash", hash), validKey("checkpoint slot", slot)); err != nil {
		return err
	}
	return r.b.Put("checkpoints/"+hash+"/"+slot, data)
}

// GetCheckpoint implements Store.
func (r records) GetCheckpoint(hash, slot string) ([]byte, error) {
	if err := errors.Join(validKey("checkpoint hash", hash), validKey("checkpoint slot", slot)); err != nil {
		return nil, err
	}
	return r.b.Get("checkpoints/" + hash + "/" + slot)
}

// Checkpoints implements Store.
func (r records) Checkpoints(hash string) ([]string, error) {
	if err := validKey("checkpoint hash", hash); err != nil {
		return nil, err
	}
	return r.b.List("checkpoints/" + hash)
}

// DeleteCheckpoints implements Store.
func (r records) DeleteCheckpoints(hash string) error {
	if err := validKey("checkpoint hash", hash); err != nil {
		return err
	}
	return r.b.Delete("checkpoints/" + hash)
}

// PutShard implements Store.
func (r records) PutShard(rec *ShardRecord) error {
	if err := errors.Join(validKey("shard job", rec.JobID), validKey("shard", rec.ID)); err != nil {
		return err
	}
	return putJSON(r.b, "shards/"+rec.JobID+"/"+rec.ID+".json", rec)
}

// Shards implements Store.
func (r records) Shards(jobID string) ([]*ShardRecord, error) {
	if err := validKey("shard job", jobID); err != nil {
		return nil, err
	}
	return listJSON[ShardRecord](r.b, "shards/"+jobID)
}

// PutShardResult implements Store.
func (r records) PutShardResult(jobID, shardID string, data []byte) error {
	if err := errors.Join(validKey("shard job", jobID), validKey("shard", shardID)); err != nil {
		return err
	}
	return r.b.Put("shardresults/"+jobID+"/"+shardID, data)
}

// GetShardResult implements Store.
func (r records) GetShardResult(jobID, shardID string) ([]byte, error) {
	if err := errors.Join(validKey("shard job", jobID), validKey("shard", shardID)); err != nil {
		return nil, err
	}
	return r.b.Get("shardresults/" + jobID + "/" + shardID)
}

// DeleteShards implements Store. The records go first: a failure
// between the two deletes leaves orphaned result blobs, never a "done"
// record whose blob is gone.
func (r records) DeleteShards(jobID string) error {
	if err := validKey("shard job", jobID); err != nil {
		return err
	}
	if err := r.b.Delete("shards/" + jobID); err != nil {
		return err
	}
	return r.b.Delete("shardresults/" + jobID)
}

// putJSON encodes v and writes it under key.
func putJSON(b Backend, key string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", key, err)
	}
	return b.Put(key, data)
}

// getJSON reads and decodes the record under key.
func getJSON[T any](b Backend, key string) (*T, error) {
	data, err := b.Get(key)
	if err != nil {
		return nil, err
	}
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("store: decoding %s: %w", key, err)
	}
	return v, nil
}

// listJSON decodes the .json records directly under dir in name order,
// skipping any that no longer read or decode.
func listJSON[T any](b Backend, dir string) ([]*T, error) {
	names, err := b.List(dir)
	if err != nil {
		return nil, err
	}
	var out []*T
	for _, name := range names {
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		if v, err := getJSON[T](b, dir+"/"+name); err == nil {
			out = append(out, v)
		}
	}
	return out, nil
}

// keyChars are the characters a record key may contain.
const keyChars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._-"

// validKey guards record/blob keys used as file names: a key must be
// non-empty, not start with a dot, and contain only keyChars, so no key
// can escape the store directory or collide with temp files.
func validKey(kind, key string) error {
	if key == "" || key[0] == '.' || strings.Trim(key, keyChars) != "" {
		return fmt.Errorf("store: invalid %s key %q: want [A-Za-z0-9._-], not starting with a dot", kind, key)
	}
	return nil
}
