package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
)

// sessionsHomedOn generates session IDs until n of them ring-home on
// the named shard.
func sessionsHomedOn(t *testing.T, r *Router, shard string, n int, prefix string) []string {
	t.Helper()
	var out []string
	for i := 0; len(out) < n; i++ {
		if i > 100000 {
			t.Fatalf("could not find %d sessions homed on %s", n, shard)
		}
		sid := fmt.Sprintf("%s-%d", prefix, i)
		if r.Placement(sid) == shard {
			out = append(out, sid)
		}
	}
	return out
}

// loadWorker couples a delta-publishing transport with a flat-reference
// twin so fills can be verified bit-for-bit after moves.
type loadWorker struct {
	sid    string
	tree   *aida.Tree
	hist   *aida.Histogram1D
	tr     *merge.Transport
	ref    *aida.Tree
	refH   *aida.Histogram1D
	refTr  *merge.Transport
	fills  int
	router *Router
}

func newLoadWorker(t *testing.T, router *Router, flat *merge.Manager, sid string) *loadWorker {
	t.Helper()
	w := &loadWorker{sid: sid, tree: aida.NewTree(), ref: aida.NewTree(), router: router}
	var err error
	if w.hist, err = w.tree.H1D("/h", "x", "", 10, 0, 10); err != nil {
		t.Fatal(err)
	}
	if w.refH, err = w.ref.H1D("/h", "x", "", 10, 0, 10); err != nil {
		t.Fatal(err)
	}
	w.tr = merge.NewTransport(sid, "w0", router)
	w.refTr = merge.NewTransport(sid, "w0", flat)
	return w
}

func sendVia(tr *merge.Transport, tree *aida.Tree) error {
	_, err := tr.Send(func(full bool) (merge.Snapshot, error) {
		var d *aida.DeltaState
		var err error
		if full {
			d, err = tree.FullDelta()
		} else {
			d, err = tree.Delta()
		}
		return merge.Snapshot{Delta: d}, err
	})
	return err
}

// publish fills once and publishes to both the fabric and the flat
// reference. Fabric errors are tolerated (a killed shard mid-test);
// the transport re-baselines on the next send, so nothing is lost.
// goroutine-safe (t.Error, never t.Fatal).
func (w *loadWorker) publish(t *testing.T, x float64) {
	t.Helper()
	w.hist.Fill(x)
	w.refH.Fill(x)
	w.fills++
	_ = sendVia(w.tr, w.tree)
	if err := sendVia(w.refTr, w.ref); err != nil {
		t.Error(err)
	}
}

func (w *loadWorker) poll(t *testing.T) {
	t.Helper()
	var reply merge.PollReply
	if err := w.router.Poll(merge.PollArgs{SessionID: w.sid}, &reply); err != nil {
		t.Error(err)
	}
}

// TestRebalanceMovesHotSessionsAndConverges is the rebalance property
// test: with all the hot sessions hashing onto one shard, the balancer
// must move load off it, converge (a steady-load round eventually makes
// zero moves), and never diverge from the flat-merge reference.
func TestRebalanceMovesHotSessionsAndConverges(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			router, _ := newRouterWithShards(t, 4)
			flat := merge.NewManager()

			hotShard := "shard00"
			var workers []*loadWorker
			hot := map[string]bool{}
			for _, sid := range sessionsHomedOn(t, router, hotShard, 4, "hot") {
				workers = append(workers, newLoadWorker(t, router, flat, sid))
				hot[sid] = true
			}
			// A few background sessions wherever the ring puts them.
			for i := 0; i < 6; i++ {
				sid := fmt.Sprintf("cold-%d", i)
				workers = append(workers, newLoadWorker(t, router, flat, sid))
			}
			for _, w := range workers {
				w.publish(t, float64(rng.Intn(10)))
			}

			b := NewBalancer(router)
			b.MaxMoves = 2
			b.Band = 0.25
			if _, err := b.RunOnce(); err != nil { // warm the rate window
				t.Fatal(err)
			}
			lastMoves := -1
			for round := 0; round < 10; round++ {
				for _, w := range workers {
					n := 1
					if hot[w.sid] {
						n = 12 // the skew the hash can't see
					}
					for k := 0; k < n; k++ {
						w.publish(t, float64(rng.Intn(10)))
						w.poll(t)
					}
				}
				moved, err := b.RunOnce()
				if err != nil {
					t.Fatal(err)
				}
				lastMoves = moved
			}
			if b.Moves() == 0 {
				t.Fatal("balancer made no moves under heavy skew")
			}
			if lastMoves != 0 {
				t.Fatalf("balancer still moving (%d) after 10 steady rounds — not converging", lastMoves)
			}
			// The hot sessions must no longer all share one shard.
			onHot := 0
			for sid := range hot {
				if router.Placement(sid) == hotShard {
					onHot++
				}
			}
			if onHot == len(hot) {
				t.Fatalf("all %d hot sessions still on %s after rebalancing", onHot, hotShard)
			}
			// No lost or duplicated fills across the moves.
			for _, w := range workers {
				got, want := fullState(t, router, w.sid), fullState(t, flat, w.sid)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("session %s diverged after rebalancing", w.sid)
				}
			}
		})
	}
}

// TestRebalanceNoLostFillsUnderChurn runs the balancer loop concurrently
// with live publish traffic (run under -race): every fill must survive
// the mid-flight handoffs exactly once.
func TestRebalanceNoLostFillsUnderChurn(t *testing.T) {
	router, _ := newRouterWithShards(t, 3)
	flat := merge.NewManager()
	const rounds = 60

	sids := sessionsHomedOn(t, router, "shard00", 3, "churn-hot")
	sids = append(sids, "churn-a", "churn-b", "churn-c")
	var wg sync.WaitGroup
	for _, sid := range sids {
		w := newLoadWorker(t, router, flat, sid)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				w.publish(t, float64(i%10))
				w.poll(t)
			}
		}()
	}
	b := NewBalancer(router)
	b.MaxMoves = 1
	b.Band = 0.1
	stop := make(chan struct{})
	var bwg sync.WaitGroup
	bwg.Add(1)
	go func() {
		defer bwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := b.RunOnce(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	bwg.Wait()
	if t.Failed() {
		return
	}
	for _, sid := range sids {
		got, want := fullState(t, router, sid), fullState(t, flat, sid)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %s diverged under rebalance churn", sid)
		}
	}
}

// ------------------------------------------------------------- faults

var errShardDown = errors.New("injected shard death")

// flakyBackend wraps a live Manager and fails every call while killed —
// the crash model for fault tests (the state is unreachable, exactly as
// if the node vanished).
type flakyBackend struct {
	inner Backend
	dead  atomic.Bool
}

func (f *flakyBackend) call(do func() error) error {
	if f.dead.Load() {
		return errShardDown
	}
	return do()
}

func (f *flakyBackend) Publish(a merge.PublishArgs, r *merge.PublishReply) error {
	return f.call(func() error { return f.inner.Publish(a, r) })
}
func (f *flakyBackend) Poll(a merge.PollArgs, r *merge.PollReply) error {
	return f.call(func() error { return f.inner.Poll(a, r) })
}
func (f *flakyBackend) Reset(a merge.ResetArgs, r *merge.ResetReply) error {
	return f.call(func() error { return f.inner.Reset(a, r) })
}
func (f *flakyBackend) Export(a merge.ExportArgs, r *merge.ExportReply) error {
	return f.call(func() error { return f.inner.Export(a, r) })
}
func (f *flakyBackend) Import(a merge.ImportArgs, r *merge.ImportReply) error {
	return f.call(func() error { return f.inner.Import(a, r) })
}
func (f *flakyBackend) Stats(a merge.StatsArgs, r *merge.StatsReply) error {
	return f.call(func() error { return f.inner.Stats(a, r) })
}
func (f *flakyBackend) Seal(a merge.SealArgs, r *merge.SealReply) error {
	return f.call(func() error { return f.inner.Seal(a, r) })
}
func (f *flakyBackend) DropSession(a merge.DropArgs, r *merge.DropReply) error {
	return f.call(func() error { return f.inner.DropSession(a, r) })
}
func (f *flakyBackend) SessionList(a merge.SessionsArgs, r *merge.SessionsReply) error {
	return f.call(func() error { return f.inner.SessionList(a, r) })
}
func (f *flakyBackend) Mirror(a merge.MirrorArgs, r *merge.MirrorReply) error {
	return f.call(func() error { return f.inner.Mirror(a, r) })
}
func (f *flakyBackend) Promote(a merge.PromoteArgs, r *merge.PromoteReply) error {
	return f.call(func() error { return f.inner.Promote(a, r) })
}
func (f *flakyBackend) Fence(a merge.FenceArgs, r *merge.FenceReply) error {
	return f.call(func() error { return f.inner.Fence(a, r) })
}

// TestKillShardRehome kills a shard under live sessions: the health
// prober must mark it dead after Threshold failed probes, its sessions
// must re-home lazily and rebuild through the engines' re-baseline, and
// no update may be lost (run under -race in CI).
func TestKillShardRehome(t *testing.T) {
	router := NewRouter(0)
	flaky := make(map[string]*flakyBackend)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("shard%02d", i)
		fb := &flakyBackend{inner: merge.NewManager()}
		flaky[name] = fb
		if err := router.AddShard(name, fb); err != nil {
			t.Fatal(err)
		}
	}
	flat := merge.NewManager()

	const victim = "shard00"
	var workers []*loadWorker
	victims := map[string]bool{}
	for _, sid := range sessionsHomedOn(t, router, victim, 3, "kill") {
		workers = append(workers, newLoadWorker(t, router, flat, sid))
		victims[sid] = true
	}
	for i, n := 0, 0; n < 4; i++ {
		sid := fmt.Sprintf("safe-%d", i)
		if router.Placement(sid) == victim {
			continue // the hash put it on the shard we are about to kill
		}
		workers = append(workers, newLoadWorker(t, router, flat, sid))
		n++
	}
	for r := 0; r < 3; r++ {
		for _, w := range workers {
			w.publish(t, float64(r))
		}
	}
	genBefore := router.Generation()
	victimSid := workers[0].sid // homed on the victim by construction
	var preKill merge.PollReply
	if err := router.Poll(merge.PollArgs{SessionID: victimSid}, &preKill); err != nil {
		t.Fatal(err)
	}
	if preKill.Epoch == 0 {
		t.Fatal("live session reported epoch 0")
	}

	// Kill the victim. Publishes against it now fail (and their
	// transports arm a re-baseline); the health prober needs Threshold
	// consecutive failed probes to react.
	flaky[victim].dead.Store(true)
	h := NewHealth(router)
	h.Threshold = 2
	var evicted []string
	h.OnDead = func(shard string, sids []string) { evicted = sids }
	if died, _ := h.RunOnce(); len(died) != 0 {
		t.Fatalf("one failed probe already killed %v (threshold 2)", died)
	}
	died, _ := h.RunOnce()
	if !reflect.DeepEqual(died, []string{victim}) {
		t.Fatalf("died = %v, want [%s]", died, victim)
	}
	if got := router.DeadShards(); !reflect.DeepEqual(got, []string{victim}) {
		t.Fatalf("DeadShards = %v", got)
	}
	if len(evicted) != len(victims) {
		t.Fatalf("evicted %v, want the %d victim sessions", evicted, len(victims))
	}
	if router.Generation() <= genBefore {
		t.Fatal("fault eviction did not bump the placement generation")
	}
	// Evicted sessions re-home on live shards — and a pre-recovery poll
	// must answer (empty) rather than error.
	for sid := range victims {
		if home := router.Placement(sid); home == victim || home == "" {
			t.Fatalf("session %s still homed on dead shard (%q)", sid, home)
		}
		var reply merge.PollReply
		if err := router.Poll(merge.PollArgs{SessionID: sid}, &reply); err != nil {
			t.Fatalf("poll of evicted session %s: %v", sid, err)
		}
	}

	// Recovery: every worker keeps publishing; victims' transports
	// re-baseline onto the new owners (their trees hold full state).
	for r := 0; r < 3; r++ {
		for _, w := range workers {
			w.publish(t, float64(5+r))
		}
	}
	for _, w := range workers {
		got, want := fullState(t, router, w.sid), fullState(t, flat, w.sid)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %s lost updates across the shard kill", w.sid)
		}
	}
	// The rebuilt incarnation announces itself: polls carry a new epoch,
	// so an incremental client full-resyncs even if the new version
	// counter has already overtaken its old one.
	var postKill merge.PollReply
	if err := router.Poll(merge.PollArgs{SessionID: victimSid}, &postKill); err != nil {
		t.Fatal(err)
	}
	if postKill.Epoch == 0 || postKill.Epoch == preKill.Epoch {
		t.Fatalf("re-homed session epoch %d (was %d): clients cannot detect the rebuild", postKill.Epoch, preKill.Epoch)
	}

	// Revival: the shard answers probes again and rejoins the routing
	// pool; re-homed sessions stay where they are.
	flaky[victim].dead.Store(false)
	_, revived := h.RunOnce()
	if !reflect.DeepEqual(revived, []string{victim}) {
		t.Fatalf("revived = %v, want [%s]", revived, victim)
	}
	if got := router.DeadShards(); len(got) != 0 {
		t.Fatalf("DeadShards after revival = %v", got)
	}
	for sid := range victims {
		if router.Placement(sid) == victim {
			t.Fatalf("revival moved session %s back to the wiped shard", sid)
		}
	}
}

// ------------------------------------------------- placement hygiene

// TestPlacementInfoNeverReportsDepartedShard is the regression test for
// the stale-addrs fix: a removed shard's endpoint must vanish with it,
// and a dropped session's placement must fall back to ring position.
func TestPlacementInfoNeverReportsDepartedShard(t *testing.T) {
	router, _ := newRouterWithShards(t, 2)
	router.SetShardAddr("shard00", "10.0.0.1:7000")
	router.SetShardAddr("shard01", "10.0.0.2:7000")

	w := &testWorker{session: "sess-x", id: "w0", tree: aida.NewTree()}
	w.tree.H1D("/h", "x", "", 10, 0, 10)
	w.publish(t, router, true)
	home, _ := router.PlacementInfo("sess-x")
	other := "shard00"
	if home == "shard00" {
		other = "shard01"
	}

	if err := router.RemoveShard(home); err != nil {
		t.Fatal(err)
	}
	if shard, addr := router.PlacementInfo("sess-x"); shard != other {
		t.Fatalf("placement after removal = %q, want %q", shard, other)
	} else if want := map[string]string{"shard00": "10.0.0.1:7000", "shard01": "10.0.0.2:7000"}[other]; addr != want {
		t.Fatalf("addr after removal = %q, want %q", addr, want)
	}
	// Re-adding the departed shard must not resurrect its old endpoint.
	if err := router.AddShard(home, merge.NewManager()); err != nil {
		t.Fatal(err)
	}
	for _, sid := range append(sessionsHomedOn(t, router, home, 1, "probe"), "sess-x") {
		if shard, addr := router.PlacementInfo(sid); shard == home && addr != "" {
			t.Fatalf("re-added shard %s reports stale addr %q", home, addr)
		}
	}
	// Drop forgets the placement: info falls back to ring position.
	router.Drop("sess-x")
	if got := router.Sessions(); len(got) != 0 {
		t.Fatalf("sessions after drop = %v", got)
	}
	if shard, _ := router.PlacementInfo("sess-x"); shard != router.Placement("sess-x") {
		t.Fatalf("dropped session info %q != ring placement %q", shard, router.Placement("sess-x"))
	}
}

// TestMoveSessionPinnedSurvivesRingEdit: a balancer move is deliberate —
// a later topology change must not silently undo it, but losing the
// pinned shard must re-home the session.
func TestMoveSessionPinnedSurvivesRingEdit(t *testing.T) {
	router, _ := newRouterWithShards(t, 2)
	flat := merge.NewManager()
	w := newLoadWorker(t, router, flat, "sess-pin")
	w.publish(t, 1)
	from := router.Placement("sess-pin")
	to := "shard00"
	if from == "shard00" {
		to = "shard01"
	}
	if err := router.MoveSession("sess-pin", to); err != nil {
		t.Fatal(err)
	}
	if got := router.Placement("sess-pin"); got != to {
		t.Fatalf("placement after move = %q, want %q", got, to)
	}
	// Ring edits leave the pinned placement alone.
	if err := router.AddShard("extra", merge.NewManager()); err != nil {
		t.Fatal(err)
	}
	if got := router.Placement("sess-pin"); got != to {
		t.Fatalf("ring edit moved pinned session to %q", got)
	}
	w.publish(t, 2)
	// Removing the pinned shard re-homes (and unpins) the session.
	if err := router.RemoveShard(to); err != nil {
		t.Fatal(err)
	}
	if got := router.Placement("sess-pin"); got == to || got == "" {
		t.Fatalf("placement after pinned-shard removal = %q", got)
	}
	w.publish(t, 3)
	got, want := fullState(t, router, "sess-pin"), fullState(t, flat, "sess-pin")
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pinned session diverged across ring edits")
	}
}
