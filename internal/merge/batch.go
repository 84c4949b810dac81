// Publish batching: coalesce several sessions' snapshot uploads into
// one wire call. On a node running many engines (or forwarding many
// SubMerger groups) the per-publish RMI round trip — header encode,
// syscall, server dispatch — dominates once deltas are small; a
// Batcher queues concurrent publishes for a flush window and ships
// them as a single PublishBatch, which every merge tier (Manager,
// SubMerger, shard router, remote backend) accepts and unpacks in
// order. Batching changes transport economics only: each item is
// applied by the same Publish path with the same seq/NeedFull
// semantics, and per-item failures come back per item, so one bad
// delta cannot poison its batch-mates — the equivalence batch_test.go
// pins down.
package merge

import (
	"errors"
	"sync"
	"time"
)

// PublishBatchArgs carries several coalesced publishes in one call.
// Items from one producer must appear in seq order; items from
// different producers are independent.
type PublishBatchArgs struct {
	Items []PublishArgs
}

// PublishBatchReply acknowledges each item of a batch individually.
type PublishBatchReply struct {
	// Replies[i] acknowledges Items[i] (meaningful when Errs[i] is "").
	Replies []PublishReply
	// Errs[i] is the publish error for Items[i], or "". Per-item errors
	// let the rest of the batch land; only a transport failure fails the
	// whole call.
	Errs []string
}

// BatchPublisher is a Publisher that also accepts coalesced batches.
type BatchPublisher interface {
	Publisher
	PublishBatch(args PublishBatchArgs, reply *PublishBatchReply) error
}

// PublishBatch applies the items in order through the ordinary Publish
// path, collecting per-item acks and errors.
func (m *Manager) PublishBatch(args PublishBatchArgs, reply *PublishBatchReply) error {
	reply.Replies = make([]PublishReply, len(args.Items))
	reply.Errs = make([]string, len(args.Items))
	for i := range args.Items {
		if err := m.Publish(args.Items[i], &reply.Replies[i]); err != nil {
			reply.Errs[i] = err.Error()
		}
	}
	return nil
}

// PublishBatch applies the items in order through the SubMerger's
// Publish path (local merge plus flush bookkeeping per item).
func (s *SubMerger) PublishBatch(args PublishBatchArgs, reply *PublishBatchReply) error {
	reply.Replies = make([]PublishReply, len(args.Items))
	reply.Errs = make([]string, len(args.Items))
	for i := range args.Items {
		if err := s.Publish(args.Items[i], &reply.Replies[i]); err != nil {
			reply.Errs[i] = err.Error()
		}
	}
	return nil
}

// PublishBatch ships the whole batch as one RMI call.
func (p *RemotePublisher) PublishBatch(args PublishBatchArgs, reply *PublishBatchReply) error {
	if p.client.Compressed() {
		for i := range args.Items {
			if args.Items[i].Delta != nil {
				args.Items[i].Delta.SetWireCompression(true)
			}
		}
	}
	return p.client.Call(p.object+".PublishBatch", args, reply)
}

// ErrBatcherClosed rejects publishes after Close.
var ErrBatcherClosed = errors.New("merge: batcher closed")

var errShortBatchReply = errors.New("merge: batch reply shorter than batch")

// BatcherOptions tunes a Batcher.
type BatcherOptions struct {
	// Window is the optional accumulation deadline. 0 (the default) is
	// pure group commit: a batch ships the moment the upstream link is
	// free, so batching never adds latency and the coalescing factor is
	// set by how much arrives during each in-flight send. A positive
	// Window additionally holds a sub-MaxBatch batch up to this long
	// after its first item queued, trading latency for larger batches
	// (a WAN uplink where per-call cost dwarfs milliseconds).
	Window time.Duration
	// MaxBatch caps items per shipped batch (default 64); excess stays
	// queued for the next send.
	MaxBatch int
}

// batchWaiter is one queued publish and its caller's rendezvous.
type batchWaiter struct {
	args  PublishArgs
	reply *PublishReply
	done  chan error // buffered(1)
}

// Batcher coalesces concurrent publishes from many producers into
// PublishBatch calls on one upstream, group-commit style: when the
// upstream link is idle a publish ships at once (usually alone); while
// a send is in flight, later publishes queue and ship together the
// moment it returns. Coalescing therefore scales with upstream
// latency — exactly the calls worth saving — and adds none of its own.
// Publish blocks until its item's ack returns, so each producer still
// has at most one snapshot in flight and per-producer seq order is
// preserved (items enqueue in call order). Safe for any number of
// concurrent publishers.
type Batcher struct {
	upstream BatchPublisher
	opt      BatcherOptions

	mu       sync.Mutex
	queue    []*batchWaiter
	firstAt  time.Time     // when queue[0] enqueued (Window accounting)
	full     chan struct{} // pulsed when the queue reaches MaxBatch
	draining bool          // a drain goroutine is running
	closed   bool

	flushes   int64 // batches shipped
	published int64 // items shipped in them
}

// NewBatcher wraps upstream with publish coalescing.
func NewBatcher(upstream BatchPublisher, opt BatcherOptions) *Batcher {
	if opt.MaxBatch <= 0 {
		opt.MaxBatch = 64
	}
	return &Batcher{upstream: upstream, opt: opt, full: make(chan struct{}, 1)}
}

// Publish implements Publisher: queue, wait for the batch carrying
// this item to be acked, surface this item's own result.
func (b *Batcher) Publish(args PublishArgs, reply *PublishReply) error {
	w := &batchWaiter{args: args, reply: reply, done: make(chan error, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrBatcherClosed
	}
	if len(b.queue) == 0 {
		b.firstAt = time.Now()
	}
	b.queue = append(b.queue, w)
	if len(b.queue) >= b.opt.MaxBatch {
		select {
		case b.full <- struct{}{}:
		default:
		}
	}
	if !b.draining {
		b.draining = true
		go b.drain()
	}
	b.mu.Unlock()
	return <-w.done
}

// drain ships batches until the queue runs dry, then exits; the next
// publish into an idle Batcher starts a fresh drain. One drain runs at
// a time, so sends are serialized and everything that arrives during
// one send rides the next batch.
func (b *Batcher) drain() {
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			b.draining = false
			b.mu.Unlock()
			return
		}
		if wait := b.windowLeftLocked(); wait > 0 {
			b.mu.Unlock()
			// Hold for the rest of the window, unless the queue fills to
			// MaxBatch first. A stale full pulse just re-evaluates the
			// deadline.
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-b.full:
				timer.Stop()
			}
			continue
		}
		batch := b.takeLocked()
		b.mu.Unlock()
		b.send(batch)
	}
}

// windowLeftLocked returns how much longer a positive accumulation
// Window holds the current sub-MaxBatch batch. Caller holds b.mu.
func (b *Batcher) windowLeftLocked() time.Duration {
	if b.opt.Window <= 0 || len(b.queue) >= b.opt.MaxBatch {
		return 0
	}
	return b.opt.Window - time.Since(b.firstAt)
}

// takeLocked claims up to MaxBatch queued items. Caller holds b.mu.
func (b *Batcher) takeLocked() []*batchWaiter {
	n := len(b.queue)
	if n > b.opt.MaxBatch {
		n = b.opt.MaxBatch
	}
	batch := b.queue[:n:n]
	rest := b.queue[n:]
	b.queue = append([]*batchWaiter(nil), rest...)
	if len(b.queue) > 0 {
		b.firstAt = time.Now()
	}
	return batch
}

// send ships one batch and distributes per-item results. A lone item
// goes straight through Publish — the batch envelope buys nothing and
// the wire stays identical to the unbatched path.
func (b *Batcher) send(batch []*batchWaiter) {
	if len(batch) == 0 {
		return
	}
	b.mu.Lock()
	b.flushes++
	b.published += int64(len(batch))
	b.mu.Unlock()
	obsBatchSize.Observe(float64(len(batch)))
	obsBatchFlushes.Inc()
	obsBatchPublished.Add(int64(len(batch)))
	if len(batch) == 1 {
		w := batch[0]
		w.done <- b.upstream.Publish(w.args, w.reply)
		return
	}
	args := PublishBatchArgs{Items: make([]PublishArgs, len(batch))}
	for i, w := range batch {
		args.Items[i] = w.args
	}
	var reply PublishBatchReply
	if err := b.upstream.PublishBatch(args, &reply); err != nil {
		// Transport-level failure: every item sees it, every producer's
		// transport re-baselines — same as losing the same publishes
		// sent individually.
		for _, w := range batch {
			w.done <- err
		}
		return
	}
	for i, w := range batch {
		switch {
		case i < len(reply.Errs) && reply.Errs[i] != "":
			w.done <- errors.New(reply.Errs[i])
		case i < len(reply.Replies):
			*w.reply = reply.Replies[i]
			w.done <- nil
		default:
			w.done <- errShortBatchReply
		}
	}
}

// Flush ships anything currently queued without waiting for the
// deadline.
func (b *Batcher) Flush() {
	b.mu.Lock()
	batch := b.takeLocked()
	b.mu.Unlock()
	b.send(batch)
}

// Close flushes the queue and rejects further publishes.
func (b *Batcher) Close() {
	b.mu.Lock()
	b.closed = true
	batch := b.takeLocked()
	b.mu.Unlock()
	b.send(batch)
}

// Stats reports batches shipped and the publishes they carried; the
// ratio is the realized coalescing factor.
func (b *Batcher) Stats() (flushes, published int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flushes, b.published
}

var (
	_ Publisher      = (*Batcher)(nil)
	_ BatchPublisher = (*Manager)(nil)
	_ BatchPublisher = (*SubMerger)(nil)
	_ BatchPublisher = (*RemotePublisher)(nil)
)
