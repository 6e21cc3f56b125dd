package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"reramsim/internal/experiments"
	"reramsim/internal/jobs"
)

// Job states exposed by /v1/jobs.
const (
	JobRunning = "running"
	JobDone    = "done"    // every cell completed
	JobPartial = "partial" // finished, but some cells are quarantined
	JobFailed  = "failed"  // the run itself errored (deadline, drain, backend)
)

// swJob is one sweep execution: the unit the in-flight dedup collapses
// identical requests onto. N clients asking the same question hold one
// of these; the grid runs once.
type swJob struct {
	ID      string
	Digest  string
	Pairs   []experiments.SimPair
	Created time.Time

	clients  atomic.Int64 // requests served by this job (1 + dedupes)
	progress atomic.Pointer[func() jobs.Progress]

	done chan struct{} // closed when the run finishes, any way

	mu     sync.Mutex
	state  string
	report *jobs.Report
	err    error
}

func (j *swJob) setProgress(fn func() jobs.Progress) { j.progress.Store(&fn) }

func (j *swJob) finish(rep *jobs.Report, err error) {
	j.mu.Lock()
	j.report = rep
	j.err = err
	switch {
	case err != nil:
		j.state = JobFailed
	case rep != nil && !rep.Complete():
		j.state = JobPartial
	default:
		j.state = JobDone
	}
	j.mu.Unlock()
	close(j.done)
}

// quarDoc is one quarantined cell in a job document.
type quarDoc struct {
	Key    string `json:"key"`
	Reason string `json:"reason"`
	Error  string `json:"error"`
}

// jobDoc is the JSON shape of one job on the wire ( /v1/sweep responses
// and /v1/jobs ). Cells carries each finished cell's result payload
// verbatim — the same bytes the journal holds, so a served result is
// byte-identical to the CLI's.
type jobDoc struct {
	JobID      string                     `json:"job_id"`
	Digest     string                     `json:"digest"`
	State      string                     `json:"state"`
	Deduped    bool                       `json:"deduped,omitempty"` // this response attached to an existing run
	Clients    int64                      `json:"clients"`
	CellsTotal int                        `json:"cells_total"`
	CreatedAt  time.Time                  `json:"created_at"`
	Progress   *jobs.Progress             `json:"progress,omitempty"`
	Cells      map[string]json.RawMessage `json:"cells,omitempty"`
	Resumed    []string                   `json:"resumed,omitempty"`
	Quarantine []quarDoc                  `json:"quarantined,omitempty"`
	Error      string                     `json:"error,omitempty"`
}

// doc renders the job's current state. withCells controls whether the
// (potentially large) result payloads are included.
func (j *swJob) doc(withCells bool) jobDoc {
	j.mu.Lock()
	state, rep, err := j.state, j.report, j.err
	j.mu.Unlock()
	d := jobDoc{
		JobID:      j.ID,
		Digest:     j.Digest,
		State:      state,
		Clients:    j.clients.Load(),
		CellsTotal: len(j.Pairs),
		CreatedAt:  j.Created,
	}
	if state == JobRunning {
		if p := j.progress.Load(); p != nil {
			prog := (*p)()
			d.Progress = &prog
		}
		return d
	}
	if err != nil {
		d.Error = err.Error()
	}
	if rep != nil {
		d.Resumed = rep.Resumed
		for _, q := range rep.Quarantined {
			d.Quarantine = append(d.Quarantine, quarDoc{Key: q.Key, Reason: q.Reason, Error: q.Err.Error()})
		}
		if withCells {
			d.Cells = make(map[string]json.RawMessage, len(rep.Done))
			for k, payload := range rep.Done {
				d.Cells[k] = json.RawMessage(payload)
			}
		}
	}
	return d
}

// jobRegistry tracks sweep jobs: the in-flight dedup index by digest,
// the bounded history by id, and the wait group a graceful drain blocks
// on.
type jobRegistry struct {
	mu       sync.Mutex
	inflight map[string]*swJob // digest -> running job
	byID     map[string]*swJob
	order    []string // job ids, oldest first, for history eviction
	seq      uint64

	wg sync.WaitGroup // running job executors
}

// jobHistory bounds the finished jobs kept for GET /v1/jobs; running
// jobs are never evicted.
const jobHistory = 256

func newJobRegistry() *jobRegistry {
	return &jobRegistry{
		inflight: make(map[string]*swJob),
		byID:     make(map[string]*swJob),
	}
}

// openOrAttach returns the job for digest: the running one when an
// identical request is already in flight (attached=true — the caller
// increments no compute), or a fresh job whose executor the caller must
// start via the returned start hook. The decision and the registration
// are one critical section, so two racing identical requests can never
// both become executors.
func (r *jobRegistry) openOrAttach(digest string, pairs []experiments.SimPair,
	run func(j *swJob)) (j *swJob, attached bool) {
	r.mu.Lock()
	if j := r.inflight[digest]; j != nil {
		j.clients.Add(1)
		r.mu.Unlock()
		return j, true
	}
	r.seq++
	j = &swJob{
		ID:      fmt.Sprintf("job-%d-%s", r.seq, shortDigest(digest)),
		Digest:  digest,
		Pairs:   pairs,
		Created: time.Now(),
		done:    make(chan struct{}),
		state:   JobRunning,
	}
	j.clients.Add(1)
	r.inflight[digest] = j
	r.byID[j.ID] = j
	r.order = append(r.order, j.ID)
	r.evictLocked()
	r.wg.Add(1)
	r.mu.Unlock()

	go func() {
		defer r.wg.Done()
		defer func() {
			r.mu.Lock()
			if r.inflight[digest] == j {
				delete(r.inflight, digest)
			}
			r.mu.Unlock()
		}()
		run(j)
	}()
	return j, false
}

// evictLocked drops the oldest finished jobs beyond the history bound.
// Running jobs are never evicted (they are still someone's request).
func (r *jobRegistry) evictLocked() {
	for len(r.order) > jobHistory {
		evicted := false
		for i, id := range r.order {
			j := r.byID[id]
			if j == nil {
				r.order = append(r.order[:i], r.order[i+1:]...)
				evicted = true
				break
			}
			select {
			case <-j.done:
				delete(r.byID, id)
				r.order = append(r.order[:i], r.order[i+1:]...)
				evicted = true
			default:
				continue
			}
			break
		}
		if !evicted {
			return // everything over budget is still running; keep it
		}
	}
}

// get returns a job by id.
func (r *jobRegistry) get(id string) *swJob {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// list snapshots every tracked job, oldest first, without payloads.
func (r *jobRegistry) list() []jobDoc {
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	jobsByID := make(map[string]*swJob, len(ids))
	for _, id := range ids {
		jobsByID[id] = r.byID[id]
	}
	r.mu.Unlock()
	docs := make([]jobDoc, 0, len(ids))
	for _, id := range ids {
		if j := jobsByID[id]; j != nil {
			docs = append(docs, j.doc(false))
		}
	}
	return docs
}

// wait blocks until every running job finished or ctx dies.
func (r *jobRegistry) wait(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		r.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// shortDigest trims "grid-v1-<64 hex>" to a readable id suffix.
func shortDigest(d string) string {
	if i := len(d) - 12; i > 0 {
		return d[i:]
	}
	return d
}
