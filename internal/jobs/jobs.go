// Package jobs is a small in-process background-job registry for the
// serving layer: long-running operations (runtime data set ingestion,
// graph refreshes, snapshot writes) run in a goroutine while the HTTP
// handler returns a job ID immediately, and clients poll the job until it
// finishes. Jobs are kept in memory — the registry is operational state,
// not durable state — with a bounded history so a long-lived server does
// not accumulate finished jobs forever.
package jobs

import (
	"fmt"
	"sync"
	"time"

	"github.com/urbandata/datapolygamy/internal/obsv"
)

// Job metrics on the default registry: queue depth (active gauge),
// completions by kind and terminal status, and per-kind latency.
var (
	mActive = obsv.NewGauge("polygamy_jobs_active",
		"Background jobs currently pending or running.")
	mJobs = obsv.NewCounterVec("polygamy_jobs_total",
		"Background jobs finished, by kind and terminal status.", "kind", "status")
	mJobDuration = obsv.NewHistogramVec("polygamy_job_duration_seconds",
		"Background job run time (start to finish), by kind.", nil, "kind")
)

// Status is a job's lifecycle state.
type Status string

const (
	// Pending: created, goroutine not yet running.
	Pending Status = "pending"
	// Running: the job's work function is executing.
	Running Status = "running"
	// Done: finished successfully.
	Done Status = "done"
	// Failed: finished with an error (see Job.Error).
	Failed Status = "failed"
)

// Terminal reports whether the status is final.
func (s Status) Terminal() bool { return s == Done || s == Failed }

// Job is one background operation. Values returned by the Manager are
// snapshots: they do not change after being returned, and mutating them
// does not affect the registry.
type Job struct {
	ID     string
	Kind   string // e.g. "ingest"
	Detail string // human-readable subject, e.g. the data set name
	Status Status
	Error  string // failure message when Status == Failed

	Created  time.Time
	Started  time.Time
	Finished time.Time

	// Result holds kind-specific outcome fields, set by the work function
	// on success (e.g. indexed function counts, graph edge counts).
	Result map[string]any
}

// DefaultHistory is how many finished jobs a Manager retains.
const DefaultHistory = 256

// Manager owns a set of jobs. All methods are safe for concurrent use.
type Manager struct {
	mu      sync.Mutex
	seq     int
	jobs    map[string]*Job
	order   []string // creation order, oldest first
	history int
}

// NewManager returns a Manager retaining up to DefaultHistory finished
// jobs.
func NewManager() *Manager {
	return &Manager{jobs: make(map[string]*Job), history: DefaultHistory}
}

// Start registers a new job and runs fn in a goroutine. fn's returned
// result map and error determine the terminal state. The returned Job is
// the initial pending snapshot; poll Get for progress.
func (m *Manager) Start(kind, detail string, fn func() (map[string]any, error)) Job {
	m.mu.Lock()
	m.seq++
	j := &Job{
		ID:      fmt.Sprintf("job-%d", m.seq),
		Kind:    kind,
		Detail:  detail,
		Status:  Pending,
		Created: time.Now(),
	}
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.evictLocked()
	snap := *j
	m.mu.Unlock()
	mActive.Add(1)

	go func() {
		m.mu.Lock()
		j.Status = Running
		j.Started = time.Now()
		m.mu.Unlock()
		result, err := fn()
		m.mu.Lock()
		j.Finished = time.Now()
		status := Done
		if err != nil {
			status = Failed
			j.Error = err.Error()
		} else {
			j.Result = result
		}
		j.Status = status
		dur := j.Finished.Sub(j.Started)
		m.mu.Unlock()
		mActive.Add(-1)
		mJobs.With(kind, string(status)).Inc()
		mJobDuration.With(kind).Observe(dur.Seconds())
	}()
	return snap
}

// evictLocked drops the oldest finished jobs beyond the history bound.
// Unfinished jobs are never evicted.
func (m *Manager) evictLocked() {
	if len(m.order) <= m.history {
		return
	}
	kept := m.order[:0]
	excess := len(m.order) - m.history
	for _, id := range m.order {
		if excess > 0 && m.jobs[id].Status.Terminal() {
			delete(m.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// Get returns a snapshot of the job with the given ID.
func (m *Manager) Get(id string) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return snapshot(j), true
}

// List returns snapshots of all retained jobs, newest first.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.order))
	for i := len(m.order) - 1; i >= 0; i-- {
		out = append(out, snapshot(m.jobs[m.order[i]]))
	}
	return out
}

// snapshot deep-copies a job under the caller-held lock.
func snapshot(j *Job) Job {
	out := *j
	if j.Result != nil {
		out.Result = make(map[string]any, len(j.Result))
		for k, v := range j.Result {
			out.Result[k] = v
		}
	}
	return out
}
