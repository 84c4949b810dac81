// Package engine implements the analysis engine of §2.3/§3.5–3.6:
// "processes that accept a dataset and an analysis script and analyze the
// dataset using the script to produce a result." Engines run on worker
// nodes (as GRAM jobs), read their staged dataset part, feed records to
// the analysis code, publish intermediate AIDA snapshots to the manager,
// and obey the interactive controls of Figure 4: run, pause, resume, stop,
// rewind, step, and dynamic code reload.
package engine

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/merge"
)

// State is the engine's lifecycle position.
type State string

// Engine states.
const (
	StateIdle     State = "Idle"  // no dataset or no code yet
	StateReady    State = "Ready" // staged + loaded, not running
	StateRunning  State = "Running"
	StatePaused   State = "Paused"
	StateFinished State = "Finished" // processed the whole part
	StateError    State = "Error"
)

// Config wires one engine.
type Config struct {
	SessionID string
	WorkerID  string
	// Publisher receives snapshots: the AIDA manager, a sub-merger, or
	// a shard router fronting several manager shards — the engine's
	// uplink protocol is identical against all three.
	Publisher merge.Publisher
	// SnapshotEvery publishes after this many events (default 500).
	SnapshotEvery int
	// SnapshotInterval also publishes when this much time passed since
	// the last snapshot (default 1s) — the paper's sub-minute feedback.
	SnapshotInterval time.Duration
	// Registry resolves native analyses (nil = analysis.Default).
	Registry *analysis.Registry
	// GlobalOffset is the absolute index of the part's first record.
	GlobalOffset int64
}

// Engine is a single-goroutine event-loop worker; all control methods are
// safe to call from any goroutine.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	state   State
	stopped bool // terminal shutdown

	partPath string
	reader   *dataset.Reader
	closer   io.Closer
	total    int64
	// it is the loop's iterator, positioned at nextRec and kept across
	// batches so its read window is reused. epoch counts SetPart and
	// Rewind calls: a batch that started under an older epoch discards
	// its results, and with them its iterator.
	it    *dataset.Iterator
	epoch uint64

	bundle        *codeloader.Bundle
	pendingBundle *codeloader.Bundle // swapped in at next rewind/run

	tree     *aida.Tree
	anal     analysis.Analysis
	ctx      *analysis.Context
	nextRec  int64
	stepLeft int64 // records remaining in a Step command (-1 = unlimited)
	lastErr  error
	lastSnap time.Time
	events   int64 // processed since init

	// transport owns the snapshot uplink protocol: generation stamps,
	// re-baselining after failures, and per-connection compression.
	transport *merge.Transport

	loopOnce sync.Once
	done     chan struct{}
}

// New creates an engine; call Serve (usually via the GRAM launcher) to
// start its loop.
func New(cfg Config) *Engine {
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = 500
	}
	if cfg.SnapshotInterval <= 0 {
		cfg.SnapshotInterval = time.Second
	}
	e := &Engine{cfg: cfg, state: StateIdle, done: make(chan struct{})}
	e.cond = sync.NewCond(&e.mu)
	if cfg.Publisher != nil {
		e.transport = merge.NewTransport(cfg.SessionID, cfg.WorkerID, cfg.Publisher)
	}
	return e
}

// State returns the current state and last error.
func (e *Engine) State() (State, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.state, e.lastErr
}

// Progress reports processed and total record counts.
func (e *Engine) Progress() (done, total int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.events, e.total
}

// Rebaselines reports how many snapshot publishes after the first were
// forced to carry a full baseline (upstream NeedFull or a transport
// failure). A shard handoff that races a publish shows up here as a
// re-baseline or two (one per refused send while the session was
// sealed); a steadily climbing count means the uplink is flapping.
func (e *Engine) Rebaselines() int64 {
	if e.transport == nil {
		return 0
	}
	return e.transport.Rebaselines()
}

// SetPart points the engine at its staged dataset part (a container file
// on the worker's scratch disk).
func (e *Engine) SetPart(path string, globalOffset int64) error {
	r, f, err := dataset.Open(path)
	if err != nil {
		return fmt.Errorf("engine %s: opening part: %w", e.cfg.WorkerID, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closer != nil {
		e.closer.Close()
	}
	e.partPath = path
	e.reader = r
	e.closer = f
	e.total = r.NumRecords()
	e.cfg.GlobalOffset = globalOffset
	e.nextRec = 0
	e.events = 0
	e.it = nil
	e.epoch++
	if e.bundle != nil {
		e.state = StateReady
	}
	e.cond.Broadcast()
	return nil
}

// LoadCode installs an analysis bundle. While running, the new code takes
// effect at the next rewind (the paper reloads between iterations); when
// idle/ready it replaces immediately.
func (e *Engine) LoadCode(b *codeloader.Bundle) error {
	if b == nil {
		return errors.New("engine: nil bundle")
	}
	// Validate instantiation eagerly so upload errors surface now.
	if _, err := b.Instantiate(e.cfg.Registry); err != nil {
		return fmt.Errorf("engine %s: bundle %s v%d: %w", e.cfg.WorkerID, b.Name, b.Version, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch e.state {
	case StateRunning, StatePaused:
		e.pendingBundle = b
	default:
		e.bundle = b
		e.anal = nil // force re-init
		if e.reader != nil {
			e.state = StateReady
		}
	}
	e.cond.Broadcast()
	return nil
}

// Run starts (or resumes) processing the whole remaining part.
func (e *Engine) Run() error { return e.start(-1) }

// Step processes at most n records then pauses.
func (e *Engine) Step(n int64) error {
	if n <= 0 {
		return fmt.Errorf("engine: step of %d records", n)
	}
	return e.start(n)
}

func (e *Engine) start(limit int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return errors.New("engine: shut down")
	}
	switch e.state {
	case StateIdle:
		return errors.New("engine: no dataset part or code loaded")
	case StateError:
		return fmt.Errorf("engine: in error state: %v", e.lastErr)
	case StateRunning:
		e.stepLeft = limit
		return nil
	case StateFinished:
		return errors.New("engine: part finished; rewind to run again")
	}
	e.stepLeft = limit
	e.state = StateRunning
	e.cond.Broadcast()
	return nil
}

// Pause suspends processing after the current record.
func (e *Engine) Pause() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state == StateRunning {
		e.state = StatePaused
		e.cond.Broadcast()
	}
	return nil
}

// Stop halts the run and rewinds to the beginning (the next Run starts
// over with fresh histograms).
func (e *Engine) Stop() error { return e.Rewind() }

// Rewind resets to record zero with fresh histograms and (if staged) the
// newest code bundle — "rewind to start the analysis from the beginning"
// (§3.6).
func (e *Engine) Rewind() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.stopped {
		return errors.New("engine: shut down")
	}
	if e.pendingBundle != nil {
		e.bundle = e.pendingBundle
		e.pendingBundle = nil
	}
	e.nextRec = 0
	e.events = 0
	e.anal = nil
	e.lastErr = nil
	e.it = nil
	e.epoch++
	if e.reader != nil && e.bundle != nil {
		e.state = StateReady
	} else {
		e.state = StateIdle
	}
	e.cond.Broadcast()
	return nil
}

// Shutdown terminates the engine loop (session teardown / job cancel).
func (e *Engine) Shutdown() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	if e.closer != nil {
		e.closer.Close()
		e.closer = nil
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	<-e.done
}

// Serve runs the engine loop until Shutdown. It is the GRAM launcher
// payload; cancellation arrives as Shutdown from the job context.
func (e *Engine) Serve() {
	e.loopOnce.Do(func() {
		defer close(e.done)
		for {
			e.mu.Lock()
			for !e.stopped && e.state != StateRunning {
				e.cond.Wait()
			}
			if e.stopped {
				e.mu.Unlock()
				return
			}
			e.mu.Unlock()
			e.processBatch()
		}
	})
}

// failLocked records an error and parks the engine. Caller holds mu.
func (e *Engine) failLocked(err error) {
	e.lastErr = err
	e.state = StateError
	e.cond.Broadcast()
}

// ensureInitLocked builds the analysis instance and tree. Caller holds mu.
func (e *Engine) ensureInitLocked() error {
	if e.anal != nil {
		return nil
	}
	if e.bundle == nil || e.reader == nil {
		return errors.New("engine: not staged")
	}
	var a analysis.Analysis
	err := contain(func() (err error) {
		a, err = e.bundle.Instantiate(e.cfg.Registry)
		return err
	})
	if err != nil {
		return err
	}
	e.tree = aida.NewTree()
	e.ctx = &analysis.Context{
		Tree:     e.tree,
		Params:   e.bundle.Params,
		WorkerID: e.cfg.WorkerID,
	}
	if err := contain(func() error { return a.Init(e.ctx) }); err != nil {
		return fmt.Errorf("engine: analysis init: %w", err)
	}
	e.anal = a
	return nil
}

// contain runs analysis code and turns a panic in it into an error, so a
// faulty script binding or native analysis fails its own engine instead
// of the process and every session in it.
func contain(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = panicError{r}
		}
	}()
	return f()
}

// panicError is a panic recovered from analysis code.
type panicError struct{ value any }

func (p panicError) Error() string { return fmt.Sprintf("analysis panicked: %v", p.value) }

// batchSize bounds how many records are processed per lock cycle so
// controls stay responsive ("timescales of less than a minute" — we aim
// far lower).
const batchSize = 64

func (e *Engine) processBatch() {
	e.mu.Lock()
	if e.state != StateRunning {
		e.mu.Unlock()
		return
	}
	// Initialize in the same locked section that takes anal and ctx: a
	// Rewind and Run landing between two lock cycles clear anal while
	// the state reads Running again.
	if err := e.ensureInitLocked(); err != nil {
		e.failLocked(err)
		e.mu.Unlock()
		return
	}
	if e.reader == nil {
		e.mu.Unlock()
		return
	}
	from := e.nextRec
	to := from + batchSize
	if e.stepLeft >= 0 && to-from > e.stepLeft {
		to = from + e.stepLeft
	}
	if to > e.total {
		to = e.total
	}
	reader := e.reader
	anal := e.anal
	ctx := e.ctx
	offset := e.cfg.GlobalOffset
	total := e.total
	it := e.it
	epoch := e.epoch
	e.it = nil
	e.mu.Unlock()

	var processed int64
	var procErr error
	if to > from && (it == nil || it.Index() != from) {
		it, procErr = reader.Iter(from, total)
	}
	if procErr == nil {
		// One recover guards the whole batch; a panic ends it at the
		// record being processed.
		procErr = contain(func() error {
			for from+processed < to {
				rec, err := it.Next()
				if err != nil {
					return err
				}
				ctx.EventIndex = offset + from + processed
				if err := anal.Process(rec, ctx); err != nil {
					return fmt.Errorf("record %d: %w", ctx.EventIndex, err)
				}
				processed++
			}
			return nil
		})
		if _, ok := procErr.(panicError); ok {
			procErr = fmt.Errorf("record %d: %w", offset+from+processed, procErr)
		}
	}

	e.mu.Lock()
	if e.epoch != epoch {
		// A Rewind or SetPart ran while this batch was unlocked; its
		// reset stands and this batch's progress is void.
		e.mu.Unlock()
		return
	}
	e.nextRec = from + processed
	e.events += processed
	if e.stepLeft > 0 {
		e.stepLeft -= processed
	}
	finished := e.nextRec >= e.total
	stepDone := e.stepLeft == 0
	if procErr == nil && !finished {
		e.it = it
	}
	// A run that ends (finished or failed) changes state only after its
	// final snapshot is out, so a caller that sees Finished also sees the
	// complete result. A step that ends pauses at once, so a Run right
	// after it resumes.
	var end State
	switch {
	case procErr != nil:
		e.lastErr = procErr
		end = StateError
	case finished:
		end = StateFinished
		if err := contain(func() error { return anal.End(ctx) }); err != nil {
			e.lastErr = err
			end = StateError
		}
	case stepDone:
		e.state = StatePaused
		// Wake WaitState callers; without this every wait burns its full
		// timeout even though the state already changed.
		e.cond.Broadcast()
	}
	needSnap := end != "" || stepDone ||
		e.events%int64(e.cfg.SnapshotEvery) < processed ||
		time.Since(e.lastSnap) >= e.cfg.SnapshotInterval
	e.mu.Unlock()

	if needSnap {
		e.publish(procErr)
	}
	if end != "" {
		e.mu.Lock()
		if e.epoch == epoch {
			e.state = end
			e.cond.Broadcast()
		}
		e.mu.Unlock()
	}
}

// publish sends the current tree snapshot through the transport — a
// delta of what changed since the last snapshot, or a full baseline on
// the first publish, after rewind, and when the manager asks. Failures
// (snapshot construction or the upstream call) surface through lastErr
// so State() reports them; the transport re-baselines after a failed
// send, because the delta's dirty bits are already consumed.
func (e *Engine) publish(procErr error) {
	e.mu.Lock()
	if e.tree == nil || e.transport == nil {
		e.mu.Unlock()
		return
	}
	var logs []string
	if sa, ok := e.anal.(interface{ Output() string }); ok {
		if out := strings.TrimSpace(sa.Output()); out != "" {
			logs = append(logs, out)
		}
	}
	if procErr != nil {
		logs = append(logs, fmt.Sprintf("[%s] ERROR: %v", e.cfg.WorkerID, procErr))
	}
	log := strings.Join(logs, "\n")
	tr := e.transport
	e.lastSnap = time.Now()
	e.mu.Unlock()

	_, err := tr.Send(func(full bool) (merge.Snapshot, error) {
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.tree == nil {
			return merge.Snapshot{}, fmt.Errorf("engine: tree gone before snapshot")
		}
		snap := merge.Snapshot{Done: e.events, Total: e.total, Log: log}
		var d *aida.DeltaState
		var err error
		if full {
			d, err = e.tree.FullDelta()
		} else {
			d, err = e.tree.Delta()
		}
		if err != nil {
			return merge.Snapshot{}, err
		}
		snap.Delta = d
		return snap, nil
	})
	if err != nil {
		e.mu.Lock()
		if e.lastErr == nil {
			e.lastErr = fmt.Errorf("engine: snapshot: %w", err)
		}
		e.mu.Unlock()
	}
}

// WaitState blocks until the engine reaches one of the given states or
// the timeout passes, returning the state it saw last.
func (e *Engine) WaitState(timeout time.Duration, states ...State) (State, error) {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		e.mu.Lock()
		e.cond.Broadcast()
		e.mu.Unlock()
	})
	defer timer.Stop()
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		for _, s := range states {
			if e.state == s {
				return e.state, nil
			}
		}
		if e.stopped {
			return e.state, errors.New("engine: shut down")
		}
		if !time.Now().Before(deadline) {
			return e.state, fmt.Errorf("engine: still %s after %v", e.state, timeout)
		}
		e.cond.Wait()
	}
}
