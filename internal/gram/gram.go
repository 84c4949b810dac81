// Package gram is the Grid Resource Allocation Manager of the framework —
// the job-submission gateway between the manager node and the compute
// element's scheduler ("the analysis engines are started using the GRAM
// server that is provided as part of a standard Globus software base
// installation", §3.2).
//
// A JobManager accepts RSL-style job descriptions, expands Count into
// individual scheduler submissions, tracks their collective state, and
// reports it back — the paper's "Submit Analysis Engine Jobs" arrow in
// Figure 1. Executables are not forked processes here: the hosting worker
// binary registers named launchers (e.g. the analysis-engine launcher),
// which is how a 2006 GRAM jobmanager-fork on a shared-everything test
// grid behaved from the service's perspective.
package gram

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/ipa-grid/ipa/internal/scheduler"
)

// JobDescription is the RSL analogue: what to run, where, how many.
type JobDescription struct {
	// Executable names a registered launcher ("ipa-engine", …).
	Executable string
	// Arguments are passed to the launcher.
	Arguments []string
	// Environment carries key=value pairs (session IDs, endpoints, …).
	Environment map[string]string
	// Count is the number of instances (the paper's pre-configured
	// number of analysis engines).
	Count int
	// Queue selects the scheduler queue (the dedicated interactive
	// queue for sessions).
	Queue string
	// User is the mapped local account from the gridmap.
	User string
}

// Launcher runs one instance of an executable on a node. index identifies
// the instance within the request (0..Count-1).
type Launcher func(ctx context.Context, node string, index int, jd JobDescription) error

// State summarizes a multi-instance GRAM job.
type State string

// GRAM job states (the GT4 names).
const (
	StateUnsubmitted State = "Unsubmitted"
	StatePending     State = "Pending"
	StateActive      State = "Active"
	StateDone        State = "Done"
	StateFailed      State = "Failed"
)

// Job tracks one submission request.
type Job struct {
	ID    string
	Desc  JobDescription
	parts []*scheduler.Job
	mgr   *JobManager
}

// JobManager is the GRAM service endpoint.
type JobManager struct {
	cluster *scheduler.Cluster

	mu        sync.Mutex
	launchers map[string]Launcher
	jobs      map[string]*Job
	nextID    int64
}

// NewJobManager wraps a scheduler cluster.
func NewJobManager(cluster *scheduler.Cluster) *JobManager {
	return &JobManager{
		cluster:   cluster,
		launchers: make(map[string]Launcher),
		jobs:      make(map[string]*Job),
	}
}

// RegisterLauncher installs the implementation of an executable name.
func (m *JobManager) RegisterLauncher(executable string, l Launcher) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.launchers[executable]; dup {
		panic(fmt.Sprintf("gram: duplicate launcher %q", executable))
	}
	m.launchers[executable] = l
}

// Submit places Count scheduler jobs and returns the GRAM job handle.
func (m *JobManager) Submit(jd JobDescription) (*Job, error) {
	if jd.Count <= 0 {
		return nil, errors.New("gram: Count must be ≥ 1")
	}
	m.mu.Lock()
	launcher, ok := m.launchers[jd.Executable]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("gram: unknown executable %q", jd.Executable)
	}
	m.nextID++
	id := fmt.Sprintf("gram-%d", m.nextID)
	m.mu.Unlock()

	job := &Job{ID: id, Desc: jd, mgr: m}
	for i := 0; i < jd.Count; i++ {
		i := i
		sj, err := m.cluster.Submit(scheduler.Spec{
			Name:  fmt.Sprintf("%s[%d]", jd.Executable, i),
			User:  jd.User,
			Queue: jd.Queue,
			Run: func(ctx context.Context, node string) error {
				return launcher(ctx, node, i, jd)
			},
		})
		if err != nil {
			// Roll back what was already queued.
			for _, prev := range job.parts {
				m.cluster.Cancel(prev.ID)
			}
			return nil, fmt.Errorf("gram: submitting instance %d: %w", i, err)
		}
		job.parts = append(job.parts, sj)
	}
	m.mu.Lock()
	m.jobs[id] = job
	m.mu.Unlock()
	return job, nil
}

// Job resolves a GRAM job by ID.
func (m *JobManager) Job(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Release cancels a job's instances and forgets the job together with
// its scheduler records (the end of a session). A released job's handle
// reports StateFailed.
func (m *JobManager) Release(id string) {
	m.mu.Lock()
	j := m.jobs[id]
	delete(m.jobs, id)
	m.mu.Unlock()
	if j == nil {
		return
	}
	for _, p := range j.parts {
		m.cluster.Forget(p.ID)
	}
}

// JobCount reports how many GRAM jobs the manager tracks.
func (m *JobManager) JobCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.jobs)
}

// State aggregates instance states: Failed if any failed or was cancelled,
// Done when all finished, Active if any runs, else Pending.
func (j *Job) State() State {
	var pending, active, done, failed int
	for _, p := range j.parts {
		snap, err := j.mgr.cluster.Snapshot(p.ID)
		if err != nil {
			failed++
			continue
		}
		switch snap.State {
		case scheduler.Pending:
			pending++
		case scheduler.Running:
			active++
		case scheduler.Done:
			done++
		default:
			failed++
		}
	}
	switch {
	case failed > 0:
		return StateFailed
	case active > 0:
		return StateActive
	case pending > 0:
		return StatePending
	case done == len(j.parts):
		return StateDone
	default:
		return StateUnsubmitted
	}
}

// Nodes lists the nodes instances run (or ran) on, indexed by instance.
func (j *Job) Nodes() []string {
	out := make([]string, len(j.parts))
	for i, p := range j.parts {
		if snap, err := j.mgr.cluster.Snapshot(p.ID); err == nil {
			out[i] = snap.Node
		}
	}
	return out
}

// Cancel stops every instance.
func (j *Job) Cancel() {
	for _, p := range j.parts {
		j.mgr.cluster.Cancel(p.ID)
	}
}

// WaitActive blocks until every instance has left Pending (all running or
// terminal) or the timeout expires. It returns the time spent waiting —
// the paper's engine-start latency ("started relatively quickly — within
// the limits of human tolerance", §2.3).
func (j *Job) WaitActive(timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		allStarted := true
		for _, p := range j.parts {
			snap, err := j.mgr.cluster.Snapshot(p.ID)
			if err != nil {
				return time.Since(start), err
			}
			if snap.State == scheduler.Pending {
				allStarted = false
				break
			}
		}
		if allStarted {
			return time.Since(start), nil
		}
		if time.Now().After(deadline) {
			return time.Since(start), fmt.Errorf("gram: %s still pending after %v", j.ID, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// Wait blocks until every instance reaches a terminal state or the
// timeout expires.
func (j *Job) Wait(timeout time.Duration) (State, error) {
	deadline := time.Now().Add(timeout)
	for _, p := range j.parts {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return j.State(), errors.New("gram: wait timed out")
		}
		if _, err := j.mgr.cluster.Wait(p.ID, remaining); err != nil {
			return j.State(), err
		}
	}
	s := j.State()
	if s != StateDone && s != StateFailed {
		return s, errors.New("gram: wait timed out")
	}
	return s, nil
}
