// Batched publish ≡ sequential publishes: the Batcher changes transport
// economics only. These tests pin the equivalence — same merged state,
// same seq/NeedFull state machine, same per-item errors — between
// coalesced and one-call-per-publish runs, including under injected
// upstream faults, plus the Batcher's own mechanics (MaxBatch early
// ship, Window accumulation, Close).
package merge

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
)

// faultyUpstream fronts a Manager and injects deterministic per-item
// faults keyed on each session's publish count: errEvery>0 fails every
// nth call outright (the publish never reaches the Manager); rejectAt>0
// fabricates a NeedFull rejection at that call index.
type faultyUpstream struct {
	inner    *Manager
	errEvery int
	rejectAt int

	mu       sync.Mutex
	calls    map[string]int
	pubs     int64 // Publish calls seen (passthrough accounting)
	batches  int64 // PublishBatch calls seen
	batchLen int64 // items carried by them
}

func newFaultyUpstream(errEvery, rejectAt int) *faultyUpstream {
	return &faultyUpstream{inner: NewManager(), errEvery: errEvery, rejectAt: rejectAt, calls: map[string]int{}}
}

func (f *faultyUpstream) apply(args PublishArgs, reply *PublishReply) error {
	f.mu.Lock()
	f.calls[args.SessionID]++
	n := f.calls[args.SessionID]
	f.mu.Unlock()
	if f.errEvery > 0 && n%f.errEvery == 0 {
		return fmt.Errorf("injected fault: %s call %d", args.SessionID, n)
	}
	if f.rejectAt > 0 && n == f.rejectAt {
		reply.Accepted, reply.NeedFull = false, true
		return nil
	}
	return f.inner.Publish(args, reply)
}

func (f *faultyUpstream) Publish(args PublishArgs, reply *PublishReply) error {
	f.mu.Lock()
	f.pubs++
	f.mu.Unlock()
	return f.apply(args, reply)
}

func (f *faultyUpstream) PublishBatch(args PublishBatchArgs, reply *PublishBatchReply) error {
	f.mu.Lock()
	f.batches++
	f.batchLen += int64(len(args.Items))
	f.mu.Unlock()
	reply.Replies = make([]PublishReply, len(args.Items))
	reply.Errs = make([]string, len(args.Items))
	for i := range args.Items {
		if err := f.apply(args.Items[i], &reply.Replies[i]); err != nil {
			reply.Errs[i] = err.Error()
		}
	}
	return nil
}

// driveSessions runs `sessions` producers × `rounds` delta publishes
// through pub, concurrently when parallel is set. Each session's
// content is a deterministic function of (session, round), so two runs
// over equal fault schedules must converge to identical merged state.
// Producer errors (injected faults surfacing through Transport.Send)
// are tolerated: the next send re-baselines, same as production.
func driveSessions(t *testing.T, pub Publisher, sessions, rounds int, parallel bool) {
	t.Helper()
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		run := func(s int) {
			sid := fmt.Sprintf("sess-%d", s)
			tree := aida.NewTree()
			h, err := tree.H1D("/a", "h", "", 50, 0, 100)
			if err != nil {
				t.Error(err)
				return
			}
			tr := NewTransport(sid, "w0", pub)
			for r := 0; r < rounds; r++ {
				h.Fill(float64((7*s + 13*r) % 100))
				_, err := tr.Send(func(full bool) (Snapshot, error) {
					if full {
						d, err := tree.FullDelta()
						return Snapshot{Delta: d}, err
					}
					d, err := tree.Delta()
					return Snapshot{Delta: d}, err
				})
				if err != nil && !strings.Contains(err.Error(), "injected fault") {
					t.Error(err)
					return
				}
			}
		}
		if parallel {
			wg.Add(1)
			go func(s int) { defer wg.Done(); run(s) }(s)
		} else {
			run(s)
		}
	}
	wg.Wait()
}

// mergedState polls every session's full merged tree and returns a
// deterministic fingerprint per session.
func mergedState(t *testing.T, m *Manager, sessions int) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for s := 0; s < sessions; s++ {
		sid := fmt.Sprintf("sess-%d", s)
		var poll PollReply
		if err := m.Poll(PollArgs{SessionID: sid, Full: true}, &poll); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		enc := gob.NewEncoder(&buf)
		for _, e := range poll.Entries {
			st, err := e.Frame.Decode()
			if err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(e.Path); err != nil {
				t.Fatal(err)
			}
			if err := enc.Encode(&st); err != nil {
				t.Fatal(err)
			}
		}
		out[sid] = buf.Bytes()
	}
	return out
}

func requireSameState(t *testing.T, batched, direct map[string][]byte) {
	t.Helper()
	if len(batched) != len(direct) {
		t.Fatalf("session count: batched %d, direct %d", len(batched), len(direct))
	}
	for sid, b := range batched {
		if !bytes.Equal(b, direct[sid]) {
			t.Fatalf("merged state for %s diverges between batched and sequential publishes", sid)
		}
	}
}

func TestBatchedPublishEquivalence(t *testing.T) {
	const sessions, rounds = 6, 25
	batchedUp := newFaultyUpstream(0, 0)
	b := NewBatcher(batchedUp, BatcherOptions{})
	driveSessions(t, b, sessions, rounds, true)
	b.Close()

	directUp := newFaultyUpstream(0, 0)
	driveSessions(t, directUp, sessions, rounds, false)

	requireSameState(t, mergedState(t, batchedUp.inner, sessions), mergedState(t, directUp.inner, sessions))
}

func TestBatchedPublishEquivalenceUnderFaults(t *testing.T) {
	// Every 7th publish per session errors before reaching the Manager,
	// and each session's 4th call is rejected with NeedFull. The
	// transport re-baselines after both, so batched and sequential runs
	// over the same schedule must still converge to identical state.
	const sessions, rounds = 5, 30
	batchedUp := newFaultyUpstream(7, 4)
	b := NewBatcher(batchedUp, BatcherOptions{})
	driveSessions(t, b, sessions, rounds, true)
	b.Close()

	directUp := newFaultyUpstream(7, 4)
	driveSessions(t, directUp, sessions, rounds, false)

	requireSameState(t, mergedState(t, batchedUp.inner, sessions), mergedState(t, directUp.inner, sessions))
}

func TestBatchSeqGapStillTriggersNeedFull(t *testing.T) {
	// Seq semantics ride through the batch path untouched: a sequence
	// gap inside a multi-item batch gets the same NeedFull answer a
	// direct publish would.
	m := NewManager()
	tree := aida.NewTree()
	h, err := tree.H1D("/a", "h", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	h.Fill(1)
	full, err := tree.FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	var rep PublishReply
	if err := m.Publish(PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1, Delta: full}, &rep); err != nil || !rep.Accepted {
		t.Fatalf("baseline publish: %v %+v", err, rep)
	}
	h.Fill(2)
	d1, err := tree.Delta()
	if err != nil {
		t.Fatal(err)
	}
	var batch PublishBatchReply
	err = m.PublishBatch(PublishBatchArgs{Items: []PublishArgs{
		{SessionID: "s", WorkerID: "w", Seq: 5, Delta: d1}, // gap: 1 → 5
	}}, &batch)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Errs[0] != "" {
		t.Fatalf("gap item errored (%s); want NeedFull rejection", batch.Errs[0])
	}
	if batch.Replies[0].Accepted || !batch.Replies[0].NeedFull {
		t.Fatalf("gap item reply = %+v, want rejected with NeedFull", batch.Replies[0])
	}
}

func TestBatcherMaxBatchShipsOneBatch(t *testing.T) {
	const k = 4
	up := newFaultyUpstream(0, 0)
	// A long window plus MaxBatch=k: nothing ships until all k
	// publishes queue, then they ship as exactly one batch.
	b := NewBatcher(up, BatcherOptions{Window: time.Minute, MaxBatch: k})
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sid := fmt.Sprintf("s%d", i)
			tree := aida.NewTree()
			h, err := tree.H1D("/a", "h", "", 10, 0, 10)
			if err != nil {
				t.Error(err)
				return
			}
			h.Fill(float64(i))
			d, err := tree.FullDelta()
			if err != nil {
				t.Error(err)
				return
			}
			var rep PublishReply
			if err := b.Publish(PublishArgs{SessionID: sid, WorkerID: "w", Seq: 1, Delta: d}, &rep); err != nil {
				t.Errorf("publish %d: %v", i, err)
			} else if !rep.Accepted {
				t.Errorf("publish %d not accepted: %+v", i, rep)
			}
		}(i)
	}
	wg.Wait()
	flushes, published := b.Stats()
	if flushes != 1 || published != k {
		t.Fatalf("stats = %d flushes / %d published, want 1 / %d", flushes, published, k)
	}
	up.mu.Lock()
	defer up.mu.Unlock()
	if up.batches != 1 || up.batchLen != k || up.pubs != 0 {
		t.Fatalf("upstream saw %d batches (%d items) + %d plain publishes, want 1 (%d) + 0",
			up.batches, up.batchLen, up.pubs, k)
	}
}

func TestBatcherPerItemFaultIsolation(t *testing.T) {
	up := newFaultyUpstream(2, 0) // faults even-numbered calls per session
	b := NewBatcher(up, BatcherOptions{Window: time.Minute, MaxBatch: 2})
	defer b.Close()

	mkDelta := func(t *testing.T) *aida.DeltaState {
		t.Helper()
		tree := aida.NewTree()
		h, err := tree.H1D("/a", "h", "", 10, 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		h.Fill(1)
		d, err := tree.FullDelta()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Scope the fault to session "bad" by pre-positioning the per-session
	// call counters: good's next call is 3 (odd → clean), bad's is 2.
	up.calls["good"] = 2
	up.calls["bad"] = 1

	var wg sync.WaitGroup
	var goodErr, badErr error
	var goodRep PublishReply
	wg.Add(2)
	go func() {
		defer wg.Done()
		goodErr = b.Publish(PublishArgs{SessionID: "good", WorkerID: "w", Seq: 1, Delta: mkDelta(t)}, &goodRep)
	}()
	go func() {
		defer wg.Done()
		var rep PublishReply
		badErr = b.Publish(PublishArgs{SessionID: "bad", WorkerID: "w", Seq: 1, Delta: mkDelta(t)}, &rep)
	}()
	wg.Wait()

	if badErr == nil || !strings.Contains(badErr.Error(), "injected fault") {
		t.Fatalf("faulted item error = %v, want injected fault", badErr)
	}
	if goodErr != nil {
		t.Fatalf("batch-mate of a faulted item failed too: %v", goodErr)
	}
	if !goodRep.Accepted {
		t.Fatalf("batch-mate not accepted: %+v", goodRep)
	}
}

// errTransport always fails the whole call — the transport-level
// failure mode, as opposed to per-item errors.
type errTransport struct{ err error }

func (e errTransport) Publish(PublishArgs, *PublishReply) error                { return e.err }
func (e errTransport) PublishBatch(PublishBatchArgs, *PublishBatchReply) error { return e.err }

func TestBatcherTransportFailureFailsAllItems(t *testing.T) {
	boom := errors.New("link down")
	b := NewBatcher(errTransport{boom}, BatcherOptions{Window: time.Minute, MaxBatch: 2})
	defer b.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rep PublishReply
			errs[i] = b.Publish(PublishArgs{SessionID: fmt.Sprintf("s%d", i), Seq: 1}, &rep)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("item %d error = %v, want transport failure", i, err)
		}
	}
}

func TestBatcherCloseRejectsLatePublishes(t *testing.T) {
	b := NewBatcher(newFaultyUpstream(0, 0), BatcherOptions{})
	b.Close()
	var rep PublishReply
	if err := b.Publish(PublishArgs{SessionID: "s", Seq: 1}, &rep); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("publish after close = %v, want ErrBatcherClosed", err)
	}
}
