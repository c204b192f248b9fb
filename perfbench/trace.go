package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span depths: a span's parent is the deepest span of the same
// operation at a smaller depth that covers at least half of it. The
// order follows the call chain: a client operation issues HTTP calls, the
// server handles them, the job waits and runs, a fleet job's shards run
// on workers that call the fleet API, and any of them may touch the
// store.
const (
	depthOp          = iota // one workload operation; self time is "other"
	depthClient             // load-client HTTP call, or a replica / merge / CA window
	depthServer             // job API handler
	depthJob                // job queue wait and run, from the store tap
	depthShard              // fleet shard compute and worker HTTP calls
	depthFleetServer        // fleet API handler
	depthStore              // store.Store call
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer started.
type span struct {
	ID     int64            `json:"id"`
	Parent int64            `json:"parent,omitempty"`
	Name   string           `json:"name"`
	Layer  string           `json:"layer"`
	Depth  int              `json:"depth"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Op     string           `json:"op,omitempty"`
	Job    string           `json:"job,omitempty"`
	Hash   string           `json:"hash,omitempty"`
	Shard  string           `json:"shard,omitempty"`
	State  string           `json:"state,omitempty"` // job state a put_job wrote
	Tag    string           `json:"tag,omitempty"`   // worker or store owner
	Attrs  map[string]int64 `json:"attrs,omitempty"`
	selfNs int64
}

// tracer keeps spans in memory until the run ends. It is safe for
// concurrent use.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// epoch scopes job ids: every service instance numbers its jobs from
	// job-1, so a pass that boots several gives each its own epoch.
	epoch string
	// jobOp maps a job id to the client operation that submitted it.
	jobOp map[string]string
	// jobHash maps a job id to its content hash, learned from PutJob.
	jobHash map[string]string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), jobOp: map[string]string{}, jobHash: map[string]string{}}
}

// now returns nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	s.ID = int64(len(t.spans) + 1)
	if s.Job != "" {
		s.Job = t.epoch + s.Job
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) setEpoch(epoch string) {
	t.mu.Lock()
	t.epoch = epoch
	t.mu.Unlock()
}

// bindJob records that op submitted the job and returns the job's key
// in the trace.
func (t *tracer) bindJob(jobID, op string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	key := t.epoch + jobID
	t.jobOp[key] = op
	return key
}

func (t *tracer) noteHash(jobID, hash string) {
	if jobID == "" || hash == "" {
		return
	}
	t.mu.Lock()
	t.jobHash[t.epoch+jobID] = hash
	t.mu.Unlock()
}

// finish resolves every span's operation and parent and computes self
// times: a span's duration minus the part of it its children cover. It
// returns the spans; the tracer must not be used afterwards.
func (t *tracer) finish() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans
	roots := map[string]*span{}
	for i := range spans {
		s := &spans[i]
		if s.Op == "" && s.Job != "" {
			s.Op = t.jobOp[s.Job]
		}
		if s.Depth == depthOp {
			roots[s.Op] = s
		}
	}
	// A store call keyed only by content hash belongs to the operation of
	// a job with that hash whose operation was running at the time.
	jobsOf := map[string][]string{}
	for job, h := range t.jobHash {
		jobsOf[h] = append(jobsOf[h], job)
	}
	for i := range spans {
		s := &spans[i]
		if s.Op != "" || s.Hash == "" {
			continue
		}
		for _, job := range jobsOf[s.Hash] {
			if r := roots[t.jobOp[job]]; r != nil && r.Start <= s.Start && s.End <= r.End {
				s.Op, s.Job = r.Op, job
				break
			}
		}
	}
	// Anything still unattributed belongs to the innermost attributed
	// span that contains it, preferring one with the same tag.
	for i := range spans {
		s := &spans[i]
		if s.Op != "" {
			continue
		}
		var best *span
		for j := range spans {
			c := &spans[j]
			if c.Op == "" || c.Depth >= s.Depth || c.Start > s.Start || s.End > c.End {
				continue
			}
			if best == nil {
				best = c
				continue
			}
			if same, bestSame := c.Tag == s.Tag, best.Tag == s.Tag; same != bestSame {
				if same {
					best = c
				}
			} else if c.End-c.Start < best.End-best.Start {
				best = c
			}
		}
		if best != nil {
			s.Op = best.Op
		}
	}

	byOp := map[string][]int{}
	for i := range spans {
		if spans[i].Op != "" {
			byOp[spans[i].Op] = append(byOp[spans[i].Op], i)
		}
	}
	for _, idx := range byOp {
		children := map[int][]int{}
		for _, i := range idx {
			// The parent is the deepest shallower span covering at least
			// half of s, the one covering most among equals. Spans seen
			// from different goroutines need not nest exactly: a job's run
			// ends with a store write after its event stream has already
			// delivered the done frame.
			s := &spans[i]
			p, best := -1, int64(0)
			for _, j := range idx {
				c := &spans[j]
				ov := min(c.End, s.End) - max(c.Start, s.Start)
				if c.Depth >= s.Depth || 2*ov < s.End-s.Start || ov < 0 {
					continue
				}
				if p < 0 || c.Depth > spans[p].Depth || c.Depth == spans[p].Depth && ov > best {
					p, best = j, ov
				}
			}
			if p >= 0 {
				s.Parent = spans[p].ID
				children[p] = append(children[p], i)
			}
		}
		for _, i := range idx {
			s := &spans[i]
			s.selfNs = s.End - s.Start - covered(s, spans, children[i])
		}
	}
	t.spans = nil
	return spans
}

// covered returns how much of s the union of its children covers.
func covered(s *span, spans []span, kids []int) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// jobPhase is one job's queue wait and run as its store writes show
// them: queued from the start of the queued record's write to the start
// of the running record's, running from there to the end of the done
// record's. Submit enqueues a job before it writes the queued record, so
// a runner may start it first; its wait then counts as zero.
type jobPhase struct{ queued, running, done int64 }

// jobPhases derives every job's phases from the put_job spans and adds
// them as queue and run spans; runLayer names the layer the run counts
// toward.
func (t *tracer) jobPhases(runLayer string) map[string]jobPhase {
	t.mu.Lock()
	defer t.mu.Unlock()
	seen := map[string]*jobPhase{}
	var ids []string
	for _, s := range t.spans {
		if s.Name != "put_job" {
			continue
		}
		p := seen[s.Job]
		if p == nil {
			p = &jobPhase{}
			seen[s.Job] = p
			ids = append(ids, s.Job)
		}
		switch s.State {
		case "queued":
			if p.queued == 0 {
				p.queued = s.Start
			}
		case "running":
			p.running = s.Start
		case "done":
			p.done = s.End
		}
	}
	out := map[string]jobPhase{}
	for _, id := range ids {
		p := *seen[id]
		if p.queued == 0 || p.running == 0 || p.done == 0 {
			continue // answered from the cache, or unfinished
		}
		p.queued = min(p.queued, p.running)
		out[id] = p
		t.spans = append(t.spans,
			span{ID: int64(len(t.spans) + 1), Name: "job.queue", Layer: "queue", Depth: depthJob, Start: p.queued, End: p.running, Job: id},
			span{ID: int64(len(t.spans) + 2), Name: "job.run", Layer: runLayer, Depth: depthJob, Start: p.running, End: p.done, Job: id})
	}
	return out
}

// shares sums self times per layer over every attributed span, reports
// each layer's share (the shares sum to one) and logs the table.
// samplingFrac moves that fraction of the engine layer's self time to
// the sampling layer: the replica taps measure sampling per grid point
// but cannot bracket it with a span.
func shares(e *env, spans []span, samplingFrac float64, r *result) {
	self := map[string]float64{}
	total := 0.0
	for _, s := range spans {
		if s.Op == "" {
			continue
		}
		self[s.Layer] += float64(s.selfNs)
		total += float64(s.selfNs)
	}
	moved := self["engine"] * samplingFrac
	self["engine"] -= moved
	self["sampling"] += moved
	if total <= 0 {
		return
	}
	e.logf("%-10s %12s %8s", "layer", "self s", "share")
	for _, l := range shareLayers {
		r.layer["share."+l] = self[l] / total
		e.logf("%-10s %12.4f %8.4f", l, self[l]/1e9, self[l]/total)
	}
	e.logf("%-10s %12s %8.4f", "trace.overhead", "", r.layer["trace.overhead"])
}

// busyShare returns the fraction of [from, to] during which at least one
// span matching keep was open.
func busyShare(spans []span, keep func(*span) bool, from, to int64) float64 {
	if to <= from {
		return 0
	}
	window := span{Start: from, End: to}
	var idx []int
	for i := range spans {
		if keep(&spans[i]) {
			idx = append(idx, i)
		}
	}
	return float64(covered(&window, spans, idx)) / float64(to-from)
}

// writeSpans writes the traced run's spans as JSON lines.
func writeSpans(path string, res *result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range res.spans {
		if err := enc.Encode(&res.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
