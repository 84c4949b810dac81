package relay_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/relay"
	"github.com/ipa-grid/ipa/internal/rmi"
	"github.com/ipa-grid/ipa/internal/shard"
)

// sendSnap publishes tree's next delta through tr (a full baseline when
// the transport's state machine asks for one).
func sendSnap(t *testing.T, tr *merge.Transport, tree *aida.Tree) {
	t.Helper()
	if _, err := tr.Send(func(full bool) (merge.Snapshot, error) {
		var d *aida.DeltaState
		var err error
		if full {
			d, err = tree.FullDelta()
		} else {
			d, err = tree.Delta()
		}
		return merge.Snapshot{Delta: d}, err
	}); err != nil {
		t.Fatal(err)
	}
}

// frames reads a session's full merged state from a poll surface as
// path → encoded object bytes (the byte-identity currency of the
// equivalence tests).
func frames(t *testing.T, p relay.Poller, sid string) map[string][]byte {
	t.Helper()
	var reply merge.PollReply
	if err := p.Poll(merge.PollArgs{SessionID: sid, Full: true}, &reply); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(reply.Entries))
	for _, e := range reply.Entries {
		st, err := e.State()
		if err != nil {
			t.Fatal(err)
		}
		buf, err := aida.AppendObjectState(nil, &st)
		if err != nil {
			t.Fatal(err)
		}
		out[e.Path] = buf
	}
	return out
}

func sameFrames(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(b[k], v) {
			return false
		}
	}
	return true
}

// TestRelayTreeEquivalence drives sessions through fills, object
// removals, a rewind (Reset), a live handoff, and an injected NeedFull
// at each relay tier, and asserts after every step that a two-level
// relay tree (router → r1 → r2) serves frames byte-identical to
// polling the owning shard directly. Run under -race this also
// exercises the subscription loops against concurrent downstream
// pollers.
func TestRelayTreeEquivalence(t *testing.T) {
	router := shard.NewRouter(0)
	for i := 0; i < 3; i++ {
		if err := router.AddShard(fmt.Sprintf("shard%02d", i), merge.NewManager()); err != nil {
			t.Fatal(err)
		}
	}
	r1 := relay.New("r1", router.OriginPoller())
	r1.AutoSubscribe = true
	r1.Interval = time.Millisecond
	defer r1.Close()
	r2 := relay.New("r2", r1)
	r2.AutoSubscribe = true
	r2.Interval = time.Millisecond
	defer r2.Close()

	type sess struct {
		sid  string
		tree *aida.Tree
		h    *aida.Histogram1D
		tr   *merge.Transport
	}
	var sessions []*sess
	for i := 0; i < 3; i++ {
		s := &sess{sid: fmt.Sprintf("eq-%d", i), tree: aida.NewTree()}
		var err error
		if s.h, err = s.tree.H1D("/h", "x", "", 10, 0, 10); err != nil {
			t.Fatal(err)
		}
		s.tr = merge.NewTransport(s.sid, "w0", router)
		sessions = append(sessions, s)
	}

	// settle pumps both tiers enough times to drain any NeedFull /
	// epoch-flip re-baseline chain (each needs at most two exchanges).
	settle := func(sid string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if err := r1.SyncNow(sid); err != nil {
				t.Fatal(err)
			}
			if err := r2.SyncNow(sid); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(step string) {
		t.Helper()
		for _, s := range sessions {
			settle(s.sid)
			want := frames(t, router.OriginPoller(), s.sid)
			if got := frames(t, r1, s.sid); !sameFrames(want, got) {
				t.Fatalf("%s: tier-1 relay frames diverged for %s", step, s.sid)
			}
			if got := frames(t, r2, s.sid); !sameFrames(want, got) {
				t.Fatalf("%s: tier-2 relay frames diverged for %s", step, s.sid)
			}
		}
	}

	// Concurrent downstream pollers on the leaf tier for the duration of
	// the drive — they assert nothing, they just race the sync loops.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			since := map[string]int64{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range sessions {
					var reply merge.PollReply
					if err := r2.Poll(merge.PollArgs{SessionID: s.sid, SinceVersion: since[s.sid]}, &reply); err == nil {
						since[s.sid] = reply.Version
					}
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	// Fills, plus extra objects that come and go (removals ride deltas).
	for r := 0; r < 6; r++ {
		for _, s := range sessions {
			s.h.Fill(float64(r))
			if r == 2 {
				if _, err := s.tree.H1D("/tmp/x", "x", "", 4, 0, 4); err != nil {
					t.Fatal(err)
				}
			}
			if r == 4 {
				s.tree.Rm("/tmp/x")
			}
			sendSnap(t, s.tr, s.tree)
		}
		check(fmt.Sprintf("round %d", r))
	}

	// Rewind: Reset clears the merged state (all paths go to Removed);
	// the engines then republish, which the transport answers with a
	// fresh baseline.
	for _, s := range sessions {
		if err := router.Reset(merge.ResetArgs{SessionID: s.sid}, &merge.ResetReply{}); err != nil {
			t.Fatal(err)
		}
		s.h.Fill(9)
		sendSnap(t, s.tr, s.tree) // answered NeedFull: arms the re-baseline
		sendSnap(t, s.tr, s.tree) // full baseline
	}
	check("rewind")

	// Live handoff: move every session off its current owner; the
	// migrated copy keeps serving and the relays follow incrementally.
	for _, s := range sessions {
		from := router.Placement(s.sid)
		for _, name := range router.Shards() {
			if name != from {
				if err := router.MoveSession(s.sid, name); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
		s.h.Fill(3)
		sendSnap(t, s.tr, s.tree)
	}
	check("handoff")

	// Injected NeedFull at each tier: wipe a relay's local copy under
	// its transport. The next sync is refused (NeedFull), the one after
	// republishes the full baseline; the dropped copy's replacement gets
	// a fresh local epoch, so the tier below re-baselines in turn.
	r1.Local().Drop(sessions[0].sid)
	check("needfull tier-1")
	r2.Local().Drop(sessions[1].sid)
	check("needfull tier-2")

	if st := r1.Stats(); st.Rebaselines == 0 {
		t.Fatalf("tier-1 relay reported no rebaselines after injected NeedFull: %+v", st)
	}
}

// TestRelayFailoverConvergence kills a replicated session's primary
// shard and asserts the relay re-baselines onto the promoted replica,
// mints a fresh downstream epoch (so polling clients full-resync), and
// converges byte-identical to the new owner.
func TestRelayFailoverConvergence(t *testing.T) {
	router := shard.NewRouter(0)
	router.Replicate = true
	for i := 0; i < 3; i++ {
		if err := router.AddShard(fmt.Sprintf("shard%02d", i), merge.NewManager()); err != nil {
			t.Fatal(err)
		}
	}
	rel := relay.New("fo", router.OriginPoller())
	rel.AutoSubscribe = true
	defer rel.Close()

	const sid = "failover-sess"
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr := merge.NewTransport(sid, "w0", router)
	for r := 0; r < 8; r++ {
		h.Fill(float64(r % 10))
		sendSnap(t, tr, tree)
	}
	if err := rel.Subscribe(sid); err != nil {
		t.Fatal(err)
	}
	if err := rel.SyncNow(sid); err != nil {
		t.Fatal(err)
	}

	// A downstream client's view before the failure: its cursor holds
	// the relay's local version and epoch.
	var before merge.PollReply
	if err := rel.Poll(merge.PollArgs{SessionID: sid}, &before); err != nil {
		t.Fatal(err)
	}
	if before.Epoch == 0 || before.Version == 0 {
		t.Fatalf("relay served no epoch/version before failover: %+v", before)
	}

	owner := router.Placement(sid)
	if _, promoted := router.MarkDead(owner); len(promoted) == 0 {
		t.Fatalf("killing %s promoted nothing", owner)
	}
	// The promotion minted a new upstream epoch: the next syncs detect
	// the flip, drop the local copy, and re-baseline.
	for i := 0; i < 3; i++ {
		if err := rel.SyncNow(sid); err != nil {
			t.Fatal(err)
		}
	}

	var after merge.PollReply
	if err := rel.Poll(merge.PollArgs{SessionID: sid, SinceVersion: before.Version}, &after); err != nil {
		t.Fatal(err)
	}
	if after.Epoch == 0 || after.Epoch == before.Epoch {
		t.Fatalf("relay epoch did not flip after failover: before %d after %d", before.Epoch, after.Epoch)
	}
	// The client resync rule (epoch changed) now triggers a full
	// re-poll; the rebuilt state must match the promoted owner's
	// byte-for-byte.
	want := frames(t, router.OriginPoller(), sid)
	if got := frames(t, rel, sid); !sameFrames(want, got) {
		t.Fatal("relay frames diverged from the promoted owner after failover")
	}
	if len(want) == 0 {
		t.Fatal("promoted owner lost the session state entirely")
	}
}

// TestRelayReleaseContractOverRMI extends the frame release contract
// across the relay hop: the relay subscribes to a manager over a real
// RMI connection (wire-decoded replies it must Release back to the
// pool), re-serves downstream — and repeated syncs with pooled-buffer
// reuse must never corrupt the re-served state. The downstream hop is
// wire too: a client polls the relay over RMI and Releases its replies
// after use, per the PR-7 contract.
func TestRelayReleaseContractOverRMI(t *testing.T) {
	mgr := merge.NewManager()
	upSrv := rmi.NewServer(nil)
	if err := upSrv.Register(merge.RMIObjectName, mgr); err != nil {
		t.Fatal(err)
	}
	upAddr, err := upSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer upSrv.Close()
	upClient, err := rmi.Dial(upAddr.String(), "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer upClient.Close()

	rel := relay.New("wan", relay.NewRemotePoller(upClient, ""))
	rel.AutoSubscribe = true
	defer rel.Close()

	downSrv := rmi.NewServer(nil)
	if err := downSrv.Register(relay.ObjectName("wan"), rel); err != nil {
		t.Fatal(err)
	}
	downAddr, err := downSrv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer downSrv.Close()
	downClient, err := rmi.Dial(downAddr.String(), "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer downClient.Close()

	const sid = "wire-sess"
	tree := aida.NewTree()
	h, err := tree.H1D("/h", "x", "", 50, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	tr := merge.NewTransport(sid, "w0", mgr)
	for r := 0; r < 12; r++ {
		for f := 0; f < 40; f++ {
			h.Fill(float64((r + f) % 50))
		}
		sendSnap(t, tr, tree)
		// Each sync decodes wire frames, republishes locally, and must
		// Release the pooled buffers; round-tripping every publish makes
		// any aliasing between pool reuse and the local copy visible.
		if err := rel.Subscribe(sid); err != nil {
			t.Fatal(err)
		}
		if err := rel.SyncNow(sid); err != nil {
			t.Fatal(err)
		}
	}

	want := frames(t, mgr, sid)
	// Downstream over the wire, twice, Releasing between polls: the
	// second decode reuses the first poll's returned buffers.
	for pass := 0; pass < 2; pass++ {
		var reply merge.PollReply
		if err := downClient.Call(relay.ObjectName("wan")+".Poll", merge.PollArgs{SessionID: sid, Full: true}, &reply); err != nil {
			t.Fatal(err)
		}
		got := make(map[string][]byte, len(reply.Entries))
		for _, e := range reply.Entries {
			st, err := e.State()
			if err != nil {
				t.Fatal(err)
			}
			buf, err := aida.AppendObjectState(nil, &st)
			if err != nil {
				t.Fatal(err)
			}
			got[e.Path] = buf
		}
		reply.Release()
		if !sameFrames(want, got) {
			t.Fatalf("pass %d: wire-served relay frames diverged from the origin", pass)
		}
	}
	if len(want) == 0 {
		t.Fatal("origin manager served no state")
	}
}
