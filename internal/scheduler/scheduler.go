// Package scheduler is the compute element's local resource manager — the
// PBS/Condor-style batch system behind the paper's GRAM server ("the GRAM
// server places the request to start a pre-configured number of analysis
// engines on the job scheduler", §3.2).
//
// It models the paper's central Grid-side requirement: "a dedicated timely
// scheduler queue" (§1, §6). A cluster has nodes with slots and named
// queues with priorities; the interactive queue can optionally preempt
// batch work so analysis engines start "within the limits of human
// tolerance" (§2.3) even when the farm is full.
package scheduler

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is a job's lifecycle position.
type State int

// Job states.
const (
	Pending State = iota
	Running
	Done
	Failed
	Cancelled
)

// String renders the state like scheduler CLIs do.
func (s State) String() string {
	switch s {
	case Pending:
		return "PENDING"
	case Running:
		return "RUNNING"
	case Done:
		return "DONE"
	case Failed:
		return "FAILED"
	case Cancelled:
		return "CANCELLED"
	default:
		return fmt.Sprintf("STATE(%d)", int(s))
	}
}

// JobFunc is the payload a job executes on a node. The context is
// cancelled on preemption or Cancel.
type JobFunc func(ctx context.Context, node string) error

// Spec describes a submission.
type Spec struct {
	Name  string
	User  string
	Queue string
	Run   JobFunc
}

// Job is a live submission handle.
type Job struct {
	ID    int64
	Spec  Spec
	state State
	node  string
	err   error

	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel  context.CancelFunc
	doneCh  chan struct{}
	cluster *Cluster
	// preempted marks a cancellation that should requeue rather than kill.
	preempted bool
}

// Snapshot is an immutable view of a job.
type Snapshot struct {
	ID        int64
	Name      string
	User      string
	Queue     string
	State     State
	Node      string
	Err       error
	Submitted time.Time
	Started   time.Time
	Finished  time.Time
}

// QueueConfig declares a scheduler queue.
type QueueConfig struct {
	Name string
	// Priority orders queues; higher dispatches first.
	Priority int
	// Preempting queues may displace running jobs from lower-priority
	// queues when no slot is free — the paper's fast interactive queue.
	Preempting bool
	// Preemptible jobs may be displaced (typical for batch queues).
	Preemptible bool
}

// NodeConfig declares a worker node.
type NodeConfig struct {
	Name  string
	Slots int
}

type node struct {
	name  string
	slots int
	used  int
}

// Cluster is the scheduler.
type Cluster struct {
	mu      sync.Mutex
	nodes   []*node
	queues  map[string]QueueConfig
	pending map[string][]*Job // queue name → FIFO
	running map[int64]*Job
	all     map[int64]*Job
	nextID  int64
	closed  bool

	// DispatchDelay adds latency between slot assignment and job start —
	// the qsub-to-run latency of a real batch system (used by tests and
	// the queue ablation).
	DispatchDelay time.Duration
}

// New creates a cluster.
func New(nodes []NodeConfig, queues []QueueConfig) (*Cluster, error) {
	if len(nodes) == 0 || len(queues) == 0 {
		return nil, errors.New("scheduler: need at least one node and one queue")
	}
	c := &Cluster{
		queues:  make(map[string]QueueConfig),
		pending: make(map[string][]*Job),
		running: make(map[int64]*Job),
		all:     make(map[int64]*Job),
	}
	for _, n := range nodes {
		if n.Slots <= 0 || n.Name == "" {
			return nil, fmt.Errorf("scheduler: bad node %+v", n)
		}
		c.nodes = append(c.nodes, &node{name: n.Name, slots: n.Slots})
	}
	for _, q := range queues {
		if q.Name == "" {
			return nil, errors.New("scheduler: queue needs a name")
		}
		if _, dup := c.queues[q.Name]; dup {
			return nil, fmt.Errorf("scheduler: duplicate queue %q", q.Name)
		}
		c.queues[q.Name] = q
	}
	return c, nil
}

// Nodes returns the node names.
func (c *Cluster) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.name
	}
	return out
}

// TotalSlots returns the cluster slot count.
func (c *Cluster) TotalSlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.nodes {
		total += n.slots
	}
	return total
}

// Submit queues a job.
func (c *Cluster) Submit(spec Spec) (*Job, error) {
	if spec.Run == nil {
		return nil, errors.New("scheduler: job has no payload")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("scheduler: cluster closed")
	}
	if _, ok := c.queues[spec.Queue]; !ok {
		return nil, fmt.Errorf("scheduler: no queue %q", spec.Queue)
	}
	c.nextID++
	j := &Job{
		ID: c.nextID, Spec: spec, state: Pending,
		submitted: time.Now(), doneCh: make(chan struct{}), cluster: c,
	}
	c.all[j.ID] = j
	c.pending[spec.Queue] = append(c.pending[spec.Queue], j)
	c.schedule()
	return j, nil
}

// queuesByPriority returns queue names, highest priority first,
// alphabetical within equal priority (determinism).
func (c *Cluster) queuesByPriority() []string {
	names := make([]string, 0, len(c.queues))
	for n := range c.queues {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		qi, qj := c.queues[names[i]], c.queues[names[j]]
		if qi.Priority != qj.Priority {
			return qi.Priority > qj.Priority
		}
		return names[i] < names[j]
	})
	return names
}

// schedule assigns pending jobs to free slots. Caller holds c.mu.
func (c *Cluster) schedule() {
	for _, qname := range c.queuesByPriority() {
		queue := c.queues[qname]
		for len(c.pending[qname]) > 0 {
			j := c.pending[qname][0]
			n := c.freeNode()
			if n == nil && queue.Preempting {
				n = c.preemptFor(queue)
			}
			if n == nil {
				break // no capacity for this queue; try lower queues
			}
			c.pending[qname] = c.pending[qname][1:]
			c.startJob(j, n)
		}
	}
}

func (c *Cluster) freeNode() *node {
	for _, n := range c.nodes {
		if n.used < n.slots {
			return n
		}
	}
	return nil
}

// preemptFor displaces one running preemptible job from a lower-priority
// queue and returns its node (nil if nothing can be displaced). The victim
// is cancelled and requeued at the head of its queue. Caller holds c.mu.
func (c *Cluster) preemptFor(q QueueConfig) *node {
	var victim *Job
	for _, j := range c.running {
		vq := c.queues[j.Spec.Queue]
		if !vq.Preemptible || vq.Priority >= q.Priority {
			continue
		}
		// Prefer the most recently started victim (least work lost).
		if victim == nil || j.started.After(victim.started) {
			victim = j
		}
	}
	if victim == nil {
		return nil
	}
	victim.preempted = true
	victim.cancel()
	// Release the victim's slot immediately so the preemptor can take it;
	// the victim's cleanup sees the preempted flag and skips the release.
	for _, n := range c.nodes {
		if n.name == victim.node {
			n.used--
			return n
		}
	}
	return nil
}

// startJob marks j running on n and launches its payload.
// Caller holds c.mu.
func (c *Cluster) startJob(j *Job, n *node) {
	ctx, cancel := context.WithCancel(context.Background())
	j.state = Running
	j.node = n.name
	j.started = time.Now()
	j.cancel = cancel
	n.used++
	c.running[j.ID] = j
	delay := c.DispatchDelay
	go func() {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
			}
		}
		var err error
		if ctx.Err() == nil {
			err = j.Spec.Run(ctx, n.name)
		} else {
			err = ctx.Err()
		}
		c.finishJob(j, n, err, ctx)
	}()
}

func (c *Cluster) finishJob(j *Job, n *node, err error, ctx context.Context) {
	c.mu.Lock()
	delete(c.running, j.ID)
	wasPreempted := j.preempted
	j.preempted = false
	if !wasPreempted {
		n.used--
	}
	// Classify.
	switch {
	case wasPreempted:
		// Requeue at the head: preemption must not lose the job.
		j.state = Pending
		j.node = ""
		j.doneChReset()
		c.pending[j.Spec.Queue] = append([]*Job{j}, c.pending[j.Spec.Queue]...)
	case ctx.Err() != nil && err == ctx.Err():
		j.state = Cancelled
		j.err = err
		j.finished = time.Now()
		close(j.doneCh)
	case err != nil:
		j.state = Failed
		j.err = err
		j.finished = time.Now()
		close(j.doneCh)
	default:
		j.state = Done
		j.finished = time.Now()
		close(j.doneCh)
	}
	c.schedule()
	c.mu.Unlock()
}

// doneChReset swaps in a fresh done channel for a requeued job.
// Caller holds c.mu.
func (j *Job) doneChReset() {
	select {
	case <-j.doneCh:
		j.doneCh = make(chan struct{})
	default:
		// not closed; keep it
	}
}

// Cancel stops a pending or running job.
func (c *Cluster) Cancel(id int64) error {
	c.mu.Lock()
	j := c.all[id]
	if j == nil {
		c.mu.Unlock()
		return fmt.Errorf("scheduler: no job %d", id)
	}
	switch j.state {
	case Pending:
		q := c.pending[j.Spec.Queue]
		for i, p := range q {
			if p.ID == id {
				c.pending[j.Spec.Queue] = append(q[:i], q[i+1:]...)
				break
			}
		}
		j.state = Cancelled
		j.err = context.Canceled
		j.finished = time.Now()
		close(j.doneCh)
		c.mu.Unlock()
		return nil
	case Running:
		cancel := j.cancel
		c.mu.Unlock()
		cancel()
		return nil
	default:
		c.mu.Unlock()
		return nil // already finished
	}
}

// Forget cancels a job that is still pending or running and drops its
// record: Snapshot, Wait and Cancel report no such job afterwards. A
// cancelled running job still releases its slot when its payload
// returns.
func (c *Cluster) Forget(id int64) {
	c.Cancel(id)
	c.mu.Lock()
	delete(c.all, id)
	c.mu.Unlock()
}

// JobCount reports how many job records the cluster holds (pending,
// running, and finished but not forgotten).
func (c *Cluster) JobCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.all)
}

// Wait blocks until the job leaves the system (Done/Failed/Cancelled) or
// the timeout elapses (0 = wait forever).
func (c *Cluster) Wait(id int64, timeout time.Duration) (Snapshot, error) {
	c.mu.Lock()
	j := c.all[id]
	c.mu.Unlock()
	if j == nil {
		return Snapshot{}, fmt.Errorf("scheduler: no job %d", id)
	}
	for {
		c.mu.Lock()
		ch := j.doneCh
		state := j.state
		c.mu.Unlock()
		if state == Done || state == Failed || state == Cancelled {
			return c.Snapshot(id)
		}
		if timeout > 0 {
			select {
			case <-ch:
			case <-time.After(timeout):
				return c.Snapshot(id)
			}
		} else {
			<-ch
		}
		// A preempted job's channel may have been replaced; loop to
		// re-check the state rather than trusting one wakeup.
	}
}

// Snapshot returns a point-in-time view of a job.
func (c *Cluster) Snapshot(id int64) (Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.all[id]
	if j == nil {
		return Snapshot{}, fmt.Errorf("scheduler: no job %d", id)
	}
	return Snapshot{
		ID: j.ID, Name: j.Spec.Name, User: j.Spec.User, Queue: j.Spec.Queue,
		State: j.state, Node: j.node, Err: j.err,
		Submitted: j.submitted, Started: j.started, Finished: j.finished,
	}, nil
}

// QueueLength returns the pending count of a queue.
func (c *Cluster) QueueLength(queue string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending[queue])
}

// RunningCount returns the number of running jobs.
func (c *Cluster) RunningCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.running)
}

// Close cancels everything and refuses new submissions.
func (c *Cluster) Close() {
	c.mu.Lock()
	c.closed = true
	var cancels []context.CancelFunc
	for _, j := range c.running {
		cancels = append(cancels, j.cancel)
	}
	for qname, q := range c.pending {
		for _, j := range q {
			j.state = Cancelled
			j.err = context.Canceled
			j.finished = time.Now()
			close(j.doneCh)
		}
		c.pending[qname] = nil
	}
	c.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
}
