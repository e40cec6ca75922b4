package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wavelethist"
)

// Async build jobs: POST /v1/build launches one goroutine that runs a
// construction method — on the simulated cluster or, when a coordinator
// is configured, on the distributed worker fleet — over a registered
// dataset and publishes the result; GET /v1/jobs/{id} polls it and
// DELETE /v1/jobs/{id} cancels it. Builds are the expensive,
// minutes-long operation the registry's snapshot swap exists to hide
// from query traffic.

// JobState is a build job's lifecycle phase.
type JobState string

// Job lifecycle states.
const (
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Build modes.
const (
	ModeSimulated   = "simulated"
	ModeDistributed = "distributed"
)

// Job is one asynchronous build. Fields other than ID are guarded by the
// owning jobSet's mutex; read them through View or Wait.
type Job struct {
	ID string

	name    string
	dataset string
	method  string
	mode    string

	state JobState
	err   string

	// distJobID is the coordinator-assigned build ID of a distributed
	// job, installed by the job-ID sink as soon as the fan-out starts —
	// the key for GET /v1/jobs/{id}/trace.
	distJobID string

	cancel context.CancelFunc

	// Build outcome, valid once state == JobDone. Metrics are recorded
	// uniformly for simulated and distributed builds so the two modes are
	// directly comparable in GET /v1/jobs/{id}: commBytes is mode-native
	// (modeled for simulated, measured for distributed), modelCommBytes
	// uses identical accounting in both modes, wireBytes is real traffic
	// (0 when simulated).
	version        uint64
	k              int
	commBytes      int64
	modelCommBytes int64
	wireBytes      int64
	rounds         int
	perRound       []RoundView
	candidateSet   int
	cachedSplits   int
	recordsRead    int64
	bytesRead      int64
	wallMillis     int64
	simSeconds     float64

	done chan struct{}
}

// RoundView is one round's profile in GET /v1/jobs/{id}: the modeled
// communication per round in both modes, plus the measured wire traffic
// and fan-out counters of distributed builds.
type RoundView struct {
	Round          int   `json:"round"`
	ModelCommBytes int64 `json:"model_comm_bytes"`
	WireBytes      int64 `json:"wire_bytes,omitempty"`
	RPCs           int   `json:"rpcs,omitempty"`
	Retries        int   `json:"retries,omitempty"`
	ReplayedSplits int   `json:"replayed_splits,omitempty"`
	CachedSplits   int   `json:"cached_splits,omitempty"`
}

// JobView is the JSON form of a job.
type JobView struct {
	ID      string   `json:"id"`
	Name    string   `json:"name"`
	Dataset string   `json:"dataset"`
	Method  string   `json:"method"`
	Mode    string   `json:"mode"`
	State   JobState `json:"state"`
	Error   string   `json:"error,omitempty"`
	// DistJobID is the coordinator's build identifier for distributed
	// jobs ("build-…"); the span trace lives at /v1/jobs/{id}/trace.
	DistJobID string `json:"dist_job_id,omitempty"`

	Version          uint64      `json:"version,omitempty"`
	K                int         `json:"k,omitempty"`
	CommBytes        int64       `json:"comm_bytes,omitempty"`
	ModelCommBytes   int64       `json:"model_comm_bytes,omitempty"`
	WireBytes        int64       `json:"wire_bytes,omitempty"`
	Rounds           int         `json:"rounds,omitempty"`
	PerRound         []RoundView `json:"per_round,omitempty"`
	CandidateSetSize int         `json:"candidate_set_size,omitempty"`
	CachedSplits     int         `json:"cached_splits,omitempty"`
	RecordsRead      int64       `json:"records_read,omitempty"`
	BytesRead        int64       `json:"bytes_read,omitempty"`
	WallMillis       int64       `json:"wall_millis,omitempty"`
	SimulatedSeconds float64     `json:"simulated_seconds,omitempty"`
}

type jobSet struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*Job
	// order holds job IDs oldest-first so retention can prune finished
	// jobs once the set exceeds maxJobs (running jobs are never pruned).
	order   []string
	maxJobs int
}

func newJobSet(maxJobs int) *jobSet {
	return &jobSet{jobs: map[string]*Job{}, maxJobs: maxJobs}
}

func (js *jobSet) create(name, dataset, method, mode string, cancel context.CancelFunc) *Job {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.seq++
	j := &Job{
		ID:      fmt.Sprintf("job-%d", js.seq),
		name:    name,
		dataset: dataset,
		method:  method,
		mode:    mode,
		state:   JobRunning,
		cancel:  cancel,
		done:    make(chan struct{}),
	}
	js.jobs[j.ID] = j
	js.order = append(js.order, j.ID)
	if js.maxJobs > 0 && len(js.jobs) > js.maxJobs {
		js.prune()
	}
	return j
}

// prune drops the oldest finished jobs until the set fits maxJobs.
// Caller holds js.mu.
func (js *jobSet) prune() {
	kept := js.order[:0]
	for _, id := range js.order {
		j := js.jobs[id]
		if len(js.jobs) > js.maxJobs && j != nil && j.state != JobRunning {
			delete(js.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	js.order = kept
}

func (js *jobSet) get(id string) (*Job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.jobs[id]
	return j, ok
}

func (js *jobSet) view(j *Job) JobView {
	js.mu.Lock()
	defer js.mu.Unlock()
	return JobView{
		ID:               j.ID,
		Name:             j.name,
		Dataset:          j.dataset,
		Method:           j.method,
		Mode:             j.mode,
		State:            j.state,
		Error:            j.err,
		DistJobID:        j.distJobID,
		Version:          j.version,
		K:                j.k,
		CommBytes:        j.commBytes,
		ModelCommBytes:   j.modelCommBytes,
		WireBytes:        j.wireBytes,
		Rounds:           j.rounds,
		PerRound:         j.perRound,
		CandidateSetSize: j.candidateSet,
		CachedSplits:     j.cachedSplits,
		RecordsRead:      j.recordsRead,
		BytesRead:        j.bytesRead,
		WallMillis:       j.wallMillis,
		SimulatedSeconds: j.simSeconds,
	}
}

// fail finishes a job unsuccessfully and returns the state it landed in
// (JobCanceled when the error is the context's own cancellation).
func (js *jobSet) fail(j *Job, err error) JobState {
	js.mu.Lock()
	j.state = JobFailed
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		j.state = JobCanceled
	}
	j.err = err.Error()
	st := j.state
	js.mu.Unlock()
	close(j.done)
	return st
}

// setDistJobID installs the coordinator-assigned build ID (job-ID sink
// callback; safe from the build goroutine while views are served).
func (js *jobSet) setDistJobID(j *Job, distID string) {
	js.mu.Lock()
	j.distJobID = distID
	js.mu.Unlock()
}

func (js *jobSet) distJobID(j *Job) string {
	js.mu.Lock()
	defer js.mu.Unlock()
	return j.distJobID
}

// running counts jobs currently in JobRunning (the jobs-running gauge).
func (js *jobSet) running() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	n := 0
	for _, j := range js.jobs {
		if j.state == JobRunning {
			n++
		}
	}
	return n
}

func (js *jobSet) finish(j *Job, e *Entry, k int, res *wavelethist.Result) {
	js.mu.Lock()
	j.state = JobDone
	j.version = e.Version
	j.k = k
	if res != nil {
		j.commBytes = res.CommBytes
		j.modelCommBytes = res.ModelCommBytes
		j.wireBytes = res.WireBytes
		j.rounds = res.Rounds
		for _, r := range res.PerRound {
			j.perRound = append(j.perRound, RoundView{
				Round:          r.Round,
				ModelCommBytes: r.ModelCommBytes,
				WireBytes:      r.WireBytes,
				RPCs:           r.RPCs,
				Retries:        r.Retries,
				ReplayedSplits: r.ReplayedSplits,
				CachedSplits:   r.CachedSplits,
			})
		}
		j.candidateSet = res.CandidateSetSize
		j.cachedSplits = res.CachedSplits
		j.recordsRead = res.RecordsRead
		j.bytesRead = res.BytesRead
		j.wallMillis = res.WallTime.Milliseconds()
		j.simSeconds = res.SimulatedSeconds()
	}
	js.mu.Unlock()
	close(j.done)
}

// requestCancel triggers the job's context cancellation; the build
// goroutine observes it and moves the job to JobCanceled. Returns false
// if the job already finished.
func (js *jobSet) requestCancel(j *Job) bool {
	js.mu.Lock()
	running := j.state == JobRunning
	cancel := j.cancel
	js.mu.Unlock()
	if !running {
		return false
	}
	if cancel != nil {
		cancel()
	}
	return true
}

// Wait blocks until the job leaves JobRunning (test helper; HTTP clients
// poll GET /v1/jobs/{id} instead) or the timeout elapses.
func (j *Job) Wait(timeout time.Duration) bool {
	select {
	case <-j.done:
		return true
	case <-time.After(timeout):
		return false
	}
}
