package shard

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/rmi"
	"github.com/ipa-grid/ipa/internal/shard/placement"
)

// ---------------------------------------------------------------- ring

func TestRingOwnerDeterministicAndBalanced(t *testing.T) {
	r := placement.NewRing(0)
	for i := 0; i < 8; i++ {
		r.Add(fmt.Sprintf("shard%02d", i))
	}
	counts := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("session-%d", i)
		owner := r.Owner(k)
		if again := r.Owner(k); again != owner {
			t.Fatalf("owner of %s flapped: %s then %s", k, owner, again)
		}
		counts[owner]++
	}
	if len(counts) != 8 {
		t.Fatalf("only %d of 8 shards own keys: %v", len(counts), counts)
	}
	for s, n := range counts {
		frac := float64(n) / keys
		if frac < 0.04 || frac > 0.30 {
			t.Fatalf("shard %s owns %.1f%% of keys (counts %v)", s, 100*frac, counts)
		}
	}
}

func TestRingAddMovesBoundedFraction(t *testing.T) {
	r := placement.NewRing(0)
	for i := 0; i < 8; i++ {
		r.Add(fmt.Sprintf("shard%02d", i))
	}
	const keys = 10000
	before := make([]string, keys)
	for i := range before {
		before[i] = r.Owner(fmt.Sprintf("session-%d", i))
	}
	r.Add("extra")
	moved, toExtra := 0, 0
	for i := range before {
		now := r.Owner(fmt.Sprintf("session-%d", i))
		if now != before[i] {
			moved++
			if now == "extra" {
				toExtra++
			}
		}
	}
	if moved == 0 {
		t.Fatal("adding a shard moved no keys")
	}
	if moved != toExtra {
		t.Fatalf("%d keys moved but only %d to the new shard (consistent hashing must not shuffle between old shards)", moved, toExtra)
	}
	if frac := float64(moved) / keys; frac > 0.30 {
		t.Fatalf("adding 1 of 9 shards moved %.1f%% of keys", 100*frac)
	}
}

// --------------------------------------------------------- test fabric

// poller is anything serving the Poll RPC (Manager, Router).
type poller interface {
	Poll(args merge.PollArgs, reply *merge.PollReply) error
}

// fullState polls the complete merged state of one session, keyed by path.
func fullState(t *testing.T, p poller, session string) map[string]aida.ObjectState {
	t.Helper()
	var reply merge.PollReply
	if err := p.Poll(merge.PollArgs{SessionID: session, Full: true}, &reply); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]aida.ObjectState, len(reply.Entries))
	for _, e := range reply.Entries {
		st, err := e.State()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Path] = st
	}
	return out
}

func statePaths(m map[string]aida.ObjectState) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// testWorker drives one simulated engine against a Publisher, honoring
// NeedFull by immediately re-baselining, like the engine transport does.
type testWorker struct {
	session string
	id      string
	tree    *aida.Tree
	seq     int64
}

func (w *testWorker) publish(t *testing.T, to merge.Publisher, full bool) {
	t.Helper()
	var d *aida.DeltaState
	var err error
	if full {
		d, err = w.tree.FullDelta()
	} else {
		d, err = w.tree.Delta()
	}
	if err != nil {
		t.Fatal(err)
	}
	w.seq++
	var rep merge.PublishReply
	if err := to.Publish(merge.PublishArgs{
		SessionID: w.session, WorkerID: w.id, Seq: w.seq, Delta: d,
	}, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.NeedFull {
		w.publish(t, to, true)
	}
}

func newRouterWithShards(t *testing.T, n int) (*Router, map[string]*merge.Manager) {
	t.Helper()
	r := NewRouter(0)
	mgrs := make(map[string]*merge.Manager, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard%02d", i)
		m := merge.NewManager()
		mgrs[name] = m
		if err := r.AddShard(name, m); err != nil {
			t.Fatal(err)
		}
	}
	return r, mgrs
}

// ------------------------------------------- equivalence property test

// TestRouterMatchesSingleManager is the shard-equivalence property
// test: an 8-shard router must produce, for every session, merged trees
// identical to a single flat manager under randomized fills, removals,
// and rewinds — including across a live shard add and a live shard
// remove, whose handoffs migrate every affected session.
func TestRouterMatchesSingleManager(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			flat := merge.NewManager()
			router, _ := newRouterWithShards(t, 8)

			const nSessions = 6
			const workersPer = 2
			type twin struct{ sharded, flat *testWorker }
			var workers []twin
			var sessions []string
			for s := 0; s < nSessions; s++ {
				sid := fmt.Sprintf("sess-%d", s)
				sessions = append(sessions, sid)
				for w := 0; w < workersPer; w++ {
					id := fmt.Sprintf("w%d", w)
					workers = append(workers, twin{
						sharded: &testWorker{session: sid, id: id, tree: aida.NewTree()},
						flat:    &testWorker{session: sid, id: id, tree: aida.NewTree()},
					})
				}
			}
			paths := []string{"/h/mass", "/h/pt", "/a/b/mult"}
			fill := func(tw twin) {
				path := paths[rng.Intn(len(paths))]
				x := float64(rng.Intn(48))/4 - 1
				n := rng.Intn(12) + 1
				for _, w := range []*testWorker{tw.sharded, tw.flat} {
					obj := w.tree.Get(path)
					if obj == nil {
						h := aida.NewHistogram1D(path[strings.LastIndex(path, "/")+1:], "", 12, -1, 11)
						if err := w.tree.PutAt(path, h); err != nil {
							t.Fatal(err)
						}
						obj = h
					}
					for k := 0; k < n; k++ {
						obj.(*aida.Histogram1D).FillW(x, 0.5)
					}
				}
			}
			compareAll := func(step int) {
				t.Helper()
				for _, sid := range sessions {
					got, want := fullState(t, router, sid), fullState(t, flat, sid)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d: session %s diverged from flat merge\n got: %v\nwant: %v",
							step, sid, statePaths(got), statePaths(want))
					}
				}
			}
			for step := 0; step < 240; step++ {
				tw := workers[rng.Intn(len(workers))]
				switch op := rng.Intn(12); {
				case op < 7:
					fill(tw)
					tw.sharded.publish(t, router, false)
					tw.flat.publish(t, flat, false)
				case op < 9: // accumulate without publishing
					fill(tw)
				case op == 9: // removal
					path := paths[rng.Intn(len(paths))]
					tw.sharded.tree.Rm(path)
					tw.flat.tree.Rm(path)
					tw.sharded.publish(t, router, false)
					tw.flat.publish(t, flat, false)
				default: // rewind: fresh tree, baseline next publish
					tw.sharded.tree = aida.NewTree()
					tw.flat.tree = aida.NewTree()
					fill(tw)
					tw.sharded.publish(t, router, false)
					tw.flat.publish(t, flat, false)
				}
				switch step {
				case 80:
					// Live shard add: sessions whose ring position moves are
					// handed off mid-run.
					if err := router.AddShard("extra", merge.NewManager()); err != nil {
						t.Fatal(err)
					}
					compareAll(step)
				case 160:
					// Live shard remove: everything it owns migrates out.
					if err := router.RemoveShard("shard03"); err != nil {
						t.Fatal(err)
					}
					compareAll(step)
				}
				if step%40 == 39 {
					compareAll(step)
				}
			}
			compareAll(-1)
		})
	}
}

// ---------------------------------------------------- handoff mechanics

// exportGate wraps a Manager and blocks inside Export (after the seal
// took effect) until released — a deterministic window for racing a
// publish against a live handoff.
type exportGate struct {
	*merge.Manager
	sealed   chan struct{} // closed when Export has sealed
	release  chan struct{} // test closes to let Export return
	armOnce  sync.Once
	disabled bool
}

func (g *exportGate) Export(args merge.ExportArgs, reply *merge.ExportReply) error {
	err := g.Manager.Export(args, reply)
	if !g.disabled {
		g.armOnce.Do(func() {
			close(g.sealed)
			<-g.release
		})
	}
	return err
}

// TestHandoffMidPublish drives a real snapshot transport against the
// router while a handoff is in flight. The publish that lands on the
// sealed old owner must draw NeedFull (not be lost), the transport must
// re-baseline exactly once, and the final merged state must match an
// unsharded reference bit for bit — no lost and no duplicated updates.
func TestHandoffMidPublish(t *testing.T) {
	const sid = "sess-handoff"
	router := NewRouter(0)
	mA, mB := merge.NewManager(), merge.NewManager()
	gate := &exportGate{Manager: mA, sealed: make(chan struct{}), release: make(chan struct{})}
	if err := router.AddShard("a", gate); err != nil {
		t.Fatal(err)
	}
	flat := merge.NewManager()

	tree := aida.NewTree()
	ref := aida.NewTree()
	h, _ := tree.H1D("/h", "mass", "", 10, 0, 10)
	rh, _ := ref.H1D("/h", "mass", "", 10, 0, 10)
	tr := merge.NewTransport(sid, "w0", router)
	refTr := merge.NewTransport(sid, "w0", flat)
	send := func(tp *merge.Transport, tw *aida.Tree) merge.PublishReply {
		t.Helper()
		rep, err := tp.Send(func(full bool) (merge.Snapshot, error) {
			var d *aida.DeltaState
			var err error
			if full {
				d, err = tw.FullDelta()
			} else {
				d, err = tw.Delta()
			}
			if err != nil {
				return merge.Snapshot{}, err
			}
			return merge.Snapshot{Delta: d, Log: ""}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Baseline publish lands on shard a.
	h.Fill(1)
	rh.Fill(1)
	send(tr, tree)
	send(refTr, ref)
	verBefore := router.Version(sid)
	var pre merge.PollReply
	if err := router.Poll(merge.PollArgs{SessionID: sid}, &pre); err != nil {
		t.Fatal(err)
	}

	// Kick off the handoff; it blocks inside Export with the seal on.
	done := make(chan error, 1)
	go func() {
		if err := router.AddShard("b", mB); err != nil {
			done <- err
			return
		}
		done <- router.RemoveShard("a")
	}()
	<-gate.sealed

	// Mid-handoff publish: routing still points at the sealed shard a.
	h.Fill(2)
	rh.Fill(2)
	rep := send(tr, tree)
	if rep.Accepted || !rep.NeedFull {
		t.Fatalf("publish against sealed shard = %+v, want refused with NeedFull", rep)
	}
	send(refTr, ref) // the reference accepts the same delta normally

	// Let the handoff finish, then re-baseline onto the new owner.
	gate.disabled = true
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := router.Placement(sid); got != "b" {
		t.Fatalf("placement after handoff = %q, want b", got)
	}
	if n := router.Handoffs(); n != 1 {
		t.Fatalf("handoffs = %d, want 1", n)
	}
	// A client that was caught up before the handoff sees no spurious
	// refresh: the imported state carries the same version.
	var quiet merge.PollReply
	if err := router.Poll(merge.PollArgs{SessionID: sid, SinceVersion: verBefore}, &quiet); err != nil {
		t.Fatal(err)
	}
	if quiet.Changed {
		t.Fatalf("caught-up poll after handoff reported changes: %+v", quiet)
	}
	// The import carried the incarnation stamp: a handoff must not look
	// like a rebuild to polling clients.
	if quiet.Epoch != pre.Epoch {
		t.Fatalf("handoff changed the session epoch %d → %d (clients would spuriously full-resync)", pre.Epoch, quiet.Epoch)
	}

	h.Fill(3)
	rh.Fill(3)
	send(tr, tree)
	send(refTr, ref)
	if n := tr.Rebaselines(); n != 1 {
		t.Fatalf("transport rebaselines = %d, want exactly 1", n)
	}
	got, want := fullState(t, router, sid), fullState(t, flat, sid)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-handoff state diverged:\n got %v\nwant %v", got, want)
	}
	st := got["/h/mass"]
	live, err := st.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n := live.(*aida.Histogram1D).Entries(); n != 3 {
		t.Fatalf("entries after handoff = %d, want 3 (lost or duplicated updates)", n)
	}
}

// TestConcurrentPublishersSurviveHandoffs hammers the router from many
// goroutines while shards join and leave, then checks every session
// converged to its reference state. Run under -race this also proves
// the locking story.
func TestConcurrentPublishersSurviveHandoffs(t *testing.T) {
	router, _ := newRouterWithShards(t, 2)
	flat := merge.NewManager()
	const nSessions = 4
	const rounds = 60

	var wg sync.WaitGroup
	for s := 0; s < nSessions; s++ {
		sid := fmt.Sprintf("sess-%d", s)
		wg.Add(1)
		go func() {
			defer wg.Done()
			tree := aida.NewTree()
			h, _ := tree.H1D("/h", "x", "", 10, 0, 10)
			tr := merge.NewTransport(sid, "w0", router)
			for i := 0; i < rounds; i++ {
				h.Fill(float64(i % 10))
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
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Topology churn concurrent with the publishes.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("churn%d", i)
		if err := router.AddShard(name, merge.NewManager()); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.RemoveShard("churn1"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	// Build the reference and compare: every fill must have survived the
	// churn exactly once.
	for s := 0; s < nSessions; s++ {
		sid := fmt.Sprintf("sess-%d", s)
		tree := aida.NewTree()
		h, _ := tree.H1D("/h", "x", "", 10, 0, 10)
		for i := 0; i < rounds; i++ {
			h.Fill(float64(i % 10))
		}
		d, err := tree.FullDelta()
		if err != nil {
			t.Fatal(err)
		}
		var rep merge.PublishReply
		if err := flat.Publish(merge.PublishArgs{SessionID: sid, WorkerID: "w0", Seq: 1, Delta: d}, &rep); err != nil {
			t.Fatal(err)
		}
		got, want := fullState(t, router, sid), fullState(t, flat, sid)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %s diverged after concurrent handoffs", sid)
		}
	}
}

// failImport refuses imports, to exercise the handoff rollback path.
type failImport struct {
	*merge.Manager
}

func (f *failImport) Import(args merge.ImportArgs, reply *merge.ImportReply) error {
	return errors.New("injected import failure")
}

func TestHandoffRollbackOnImportFailure(t *testing.T) {
	router := NewRouter(0)
	mA := merge.NewManager()
	if err := router.AddShard("a", mA); err != nil {
		t.Fatal(err)
	}
	w := &testWorker{session: "sess-rb", id: "w0", tree: aida.NewTree()}
	h, _ := w.tree.H1D("/h", "x", "", 10, 0, 10)
	h.Fill(1)
	w.publish(t, router, false)

	// Find a shard name the session would move to, and make it refuse.
	bad := &failImport{Manager: merge.NewManager()}
	name := ""
	for i := 0; ; i++ {
		name = fmt.Sprintf("cand%d", i)
		probe := placement.NewRing(0)
		probe.Add("a")
		probe.Add(name)
		if probe.Owner("sess-rb") == name {
			break
		}
	}
	if err := router.AddShard(name, bad); err == nil {
		t.Fatal("AddShard with failing import did not report the handoff error")
	}
	// The session must still be served (unsealed) from its old shard.
	if got := router.Placement("sess-rb"); got != "a" {
		t.Fatalf("placement after failed handoff = %q, want a", got)
	}
	h.Fill(2)
	w.publish(t, router, false)
	st := fullState(t, router, "sess-rb")
	live, err := st["/h/x"].Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n := live.(*aida.Histogram1D).Entries(); n != 2 {
		t.Fatalf("entries after rollback = %d, want 2", n)
	}
}

// ------------------------------------------------------- remote shards

// TestRemoteShardsOverRMI runs the fabric with both shards behind a
// real RMI server: publishes, polls, and a full handoff (export /
// import / drop) all cross the wire.
func TestRemoteShardsOverRMI(t *testing.T) {
	srv := rmi.NewServer(nil)
	m0, m1 := merge.NewManager(), merge.NewManager()
	if err := srv.Register(ObjectName("m0"), m0); err != nil {
		t.Fatal(err)
	}
	if err := srv.Register(ObjectName("m1"), m1); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *rmi.Client {
		c, err := rmi.Dial(addr.String(), "token")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	router := NewRouter(0)
	if err := router.AddShard("m0", NewRemote(dial(), ObjectName("m0"))); err != nil {
		t.Fatal(err)
	}

	const sid = "sess-rmi"
	w := &testWorker{session: sid, id: "w0", tree: aida.NewTree()}
	h, _ := w.tree.H1D("/h", "x", "", 10, 0, 10)
	h.Fill(1)
	h.Fill(2)
	w.publish(t, router, false)

	if err := router.AddShard("m1", NewRemote(dial(), ObjectName("m1"))); err != nil {
		t.Fatal(err)
	}
	// Wherever the session landed, force it across the wire once.
	var moveTo *merge.Manager
	if router.Placement(sid) == "m0" {
		if err := router.RemoveShard("m0"); err != nil {
			t.Fatal(err)
		}
		moveTo = m1
	} else {
		if err := router.RemoveShard("m1"); err != nil {
			t.Fatal(err)
		}
		moveTo = m0
	}
	var sl merge.SessionsReply
	if err := moveTo.SessionList(merge.SessionsArgs{}, &sl); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sl.SessionIDs, []string{sid}) {
		t.Fatalf("surviving shard sessions = %v, want [%s]", sl.SessionIDs, sid)
	}
	// The drained shard's RMI registration is withdrawn; later calls to
	// it must fail fast rather than hit a zombie manager.
	gone := "m0"
	if moveTo == m0 {
		gone = "m1"
	}
	srv.Unregister(ObjectName(gone))
	var stats merge.StatsReply
	err = dial().Call(ObjectName(gone)+".Stats", merge.StatsArgs{SessionID: sid}, &stats)
	if err == nil || !strings.Contains(err.Error(), "no object") {
		t.Fatalf("call to unregistered shard = %v, want no-object error", err)
	}
	// Post-handoff delta continues the exported sequence without resync.
	h.Fill(3)
	w.publish(t, router, false)
	st := fullState(t, router, sid)
	live, err := st["/h/x"].Restore()
	if err != nil {
		t.Fatal(err)
	}
	if n := live.(*aida.Histogram1D).Entries(); n != 3 {
		t.Fatalf("entries after RMI handoff = %d, want 3", n)
	}
}

// TestConcurrentPublishPollHandoffRace is the publish×poll×handoff race
// test (run under -race): sessions publish and poll through the router
// while shards join and leave. Pollers assert that versions only ever
// regress to a tombstone's zero (the designed full-refresh reset for
// straggler polls mid-flip), never to an intermediate value, and the
// final merged state matches a flat reference manager.
func TestConcurrentPublishPollHandoffRace(t *testing.T) {
	router, _ := newRouterWithShards(t, 2)
	flat := merge.NewManager()
	const nSessions = 4
	const rounds = 50

	var pubWG sync.WaitGroup
	for s := 0; s < nSessions; s++ {
		sid := fmt.Sprintf("sess-%d", s)
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			tree := aida.NewTree()
			h, _ := tree.H1D("/h", "x", "", 10, 0, 10)
			tr := merge.NewTransport(sid, "w0", router)
			for i := 0; i < rounds; i++ {
				h.Fill(float64(i % 10))
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
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var pollWG sync.WaitGroup
	for s := 0; s < nSessions; s++ {
		sid := fmt.Sprintf("sess-%d", s)
		pollWG.Add(1)
		go func() {
			defer pollWG.Done()
			var since int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				var reply merge.PollReply
				if err := router.Poll(merge.PollArgs{SessionID: sid, SinceVersion: since}, &reply); err != nil {
					t.Error(err)
					return
				}
				if reply.Version < since && reply.Version != 0 {
					t.Errorf("poll version regressed %d → %d (not a tombstone reset)", since, reply.Version)
					return
				}
				for _, e := range reply.Entries {
					if _, err := e.State(); err != nil {
						t.Errorf("undecodable entry %s mid-handoff: %v", e.Path, err)
						return
					}
				}
				since = reply.Version
			}
		}()
	}
	// Topology churn concurrent with both traffic kinds.
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("churn%d", i)
		if err := router.AddShard(name, merge.NewManager()); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.RemoveShard("churn1"); err != nil {
		t.Fatal(err)
	}
	if err := router.RemoveShard("churn2"); err != nil {
		t.Fatal(err)
	}
	pubWG.Wait()
	close(stop)
	pollWG.Wait()
	if t.Failed() {
		return
	}

	for s := 0; s < nSessions; s++ {
		sid := fmt.Sprintf("sess-%d", s)
		tree := aida.NewTree()
		h, _ := tree.H1D("/h", "x", "", 10, 0, 10)
		for i := 0; i < rounds; i++ {
			h.Fill(float64(i % 10))
		}
		d, err := tree.FullDelta()
		if err != nil {
			t.Fatal(err)
		}
		var rep merge.PublishReply
		if err := flat.Publish(merge.PublishArgs{SessionID: sid, WorkerID: "w0", Seq: 1, Delta: d}, &rep); err != nil {
			t.Fatal(err)
		}
		got, want := fullState(t, router, sid), fullState(t, flat, sid)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("session %s diverged under concurrent publish/poll/handoff", sid)
		}
	}
}

// TestPlacementInfoAddrs: the router reports each session's owning
// shard together with its advertised RMI endpoint, before and after a
// handoff.
func TestPlacementInfoAddrs(t *testing.T) {
	router, _ := newRouterWithShards(t, 2)
	router.SetShardAddr("shard00", "10.0.0.1:7000")
	router.SetShardAddr("shard01", "10.0.0.2:7000")
	w := &testWorker{session: "sess-a", id: "w0", tree: aida.NewTree()}
	w.tree.H1D("/h", "x", "", 10, 0, 10)
	w.publish(t, router, true)

	shard, addr := router.PlacementInfo("sess-a")
	if shard != router.Placement("sess-a") {
		t.Fatalf("PlacementInfo shard %q != Placement %q", shard, router.Placement("sess-a"))
	}
	want := map[string]string{"shard00": "10.0.0.1:7000", "shard01": "10.0.0.2:7000"}
	if addr != want[shard] {
		t.Fatalf("shard %s addr = %q, want %q", shard, addr, want[shard])
	}
	// An unadvertised shard reports an empty addr.
	router.SetShardAddr(shard, "")
	if _, addr := router.PlacementInfo("sess-a"); addr != "" {
		t.Fatalf("cleared shard addr still reports %q", addr)
	}
}
