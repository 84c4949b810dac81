package merge

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walManager opens a log at path, replays it into a fresh manager, and
// attaches it — the exact restart sequence ipa-manager runs.
func walManager(t *testing.T, path string, opts WALOptions) (*Manager, *WAL, int) {
	t.Helper()
	m := NewManager()
	w, err := OpenWAL(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	n, err := w.Replay(m)
	if err != nil {
		t.Fatal(err)
	}
	m.SetWAL(w)
	return m, w, n
}

// TestWALReplayRebuildsSessions is the crash-restart round trip: a
// manager logs its publishes, "crashes" (only the log survives), and a
// cold manager replaying the log holds byte-identical merged trees.
func TestWALReplayRebuildsSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.wal")
	m1, w1, n := walManager(t, path, WALOptions{SyncEvery: 1})
	if n != 0 {
		t.Fatalf("fresh log replayed %d records", n)
	}
	publishRounds(t, m1, nil, "sess-a", 6)
	publishRounds(t, m1, nil, "sess-b", 3)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	m2, _, n := walManager(t, path, WALOptions{SyncEvery: 1})
	if n == 0 {
		t.Fatal("restart replayed nothing")
	}
	for _, sid := range []string{"sess-a", "sess-b"} {
		got, want := mergedOf(t, m2, sid), mergedOf(t, m1, sid)
		if len(want) == 0 {
			t.Fatalf("reference state for %s is empty", sid)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed state for %s differs from the original", sid)
		}
	}
	// Versions must survive too: a client that polled version v before
	// the crash must not see the rebuilt session regress below it.
	var p1, p2 PollReply
	if err := m1.Poll(PollArgs{SessionID: "sess-a"}, &p1); err != nil {
		t.Fatal(err)
	}
	if err := m2.Poll(PollArgs{SessionID: "sess-a"}, &p2); err != nil {
		t.Fatal(err)
	}
	if p2.Version != p1.Version {
		t.Fatalf("replayed version %d, want %d", p2.Version, p1.Version)
	}
}

// TestWALReplayRestoresPromotionAndFence: epoch bumps and fence floors
// are state too — a restarted standby must still refuse its dead
// ancestor's stragglers.
func TestWALReplayRestoresPromotionAndFence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.wal")
	primary := NewManager()
	replica, w, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	tree := publishRounds(t, primary, replica, "s", 4)
	oldEpoch := primary.Epoch("s")

	var pr PromoteReply
	if err := replica.Promote(PromoteArgs{SessionID: "s"}, &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Found {
		t.Fatal("nothing to promote")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	cold, _, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	if got := cold.Epoch("s"); got != pr.Epoch {
		t.Fatalf("replayed epoch %d, want the promoted %d", got, pr.Epoch)
	}
	got, want := mergedOf(t, cold, "s"), mergedOf(t, primary, "s")
	if !reflect.DeepEqual(got, want) {
		t.Fatal("replayed promoted state differs from the primary's")
	}
	// The fence replayed with it: a straggler mirror from the deposed
	// incarnation still bounces off the restarted copy.
	d, err := tree.Delta()
	if err != nil {
		t.Fatal(err)
	}
	var mr MirrorReply
	if err := cold.Mirror(MirrorArgs{SessionID: "s", WorkerID: "w0", Seq: 5, Epoch: oldEpoch, Delta: d}, &mr); !errors.Is(err, ErrFenced) {
		t.Fatalf("stale mirror after replayed promote: err=%v, want ErrFenced", err)
	}
}

// TestWALCompactionPreservesState: rotating the log and re-seeding it
// with snapshots must not change what a replay rebuilds, and must
// actually retire the rotation file.
func TestWALCompactionPreservesState(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.wal")
	m1, w1, _ := walManager(t, path, WALOptions{SyncEvery: 1, CompactEvery: 1 << 20})
	publishRounds(t, m1, nil, "sess-a", 8)
	publishRounds(t, m1, nil, "sess-b", 8)
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m1.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".old"); !os.IsNotExist(err) {
		t.Fatalf("rotation file survived compaction (stat err %v)", err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("compaction grew the log: %d → %d bytes over 16 single-fill deltas", before.Size(), after.Size())
	}
	// More traffic lands after compaction; replay must cover both eras.
	publishRounds(t, m1, nil, "sess-c", 2)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	for _, sid := range []string{"sess-a", "sess-b", "sess-c"} {
		if got, want := mergedOf(t, m2, sid), mergedOf(t, m1, sid); !reflect.DeepEqual(got, want) {
			t.Fatalf("replayed state for %s differs after compaction", sid)
		}
	}
}

// TestWALTornTailTruncates: an OS crash mid-append leaves a half
// record. Replay must apply the complete prefix, cut the tail, and
// leave the log appendable — never refuse to start.
func TestWALTornTailTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	m1, w1, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	publishRounds(t, m1, nil, "s", 5)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}

	m2, w2, n := walManager(t, path, WALOptions{SyncEvery: 1})
	if n == 0 {
		t.Fatal("torn tail discarded the whole log")
	}
	// The rebuilt state is a consistent prefix: identical trees up to
	// the last complete record (one round behind the original).
	var p2 PollReply
	if err := m2.Poll(PollArgs{SessionID: "s"}, &p2); err != nil {
		t.Fatal(err)
	}
	if p2.Version == 0 {
		t.Fatal("replayed prefix holds no state")
	}
	// The log keeps working after the cut: new appends follow the
	// truncation point and a fresh replay sees them.
	publishRounds(t, m2, nil, "s2", 2)
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	m3, _, _ := walManager(t, path, WALOptions{SyncEvery: 1})
	if got, want := mergedOf(t, m3, "s2"), mergedOf(t, m2, "s2"); !reflect.DeepEqual(got, want) {
		t.Fatal("post-truncation appends did not survive a further replay")
	}
	if got, want := mergedOf(t, m3, "s"), mergedOf(t, m2, "s"); !reflect.DeepEqual(got, want) {
		t.Fatal("torn-tail prefix changed across a second replay")
	}
}

// TestWALReplayRejectsNilPayloads: a record whose kind's payload is
// missing — log corruption, or a pre-delta whole-tree publish, which
// decodes with a nil Delta — fails both the full replay and the
// per-session tail replay with an error instead of a nil dereference.
func TestWALReplayRejectsNilPayloads(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  walRecord
	}{
		{"publish", walRecord{Kind: walPublish}},
		{"publish-without-delta", walRecord{Kind: walPublish, Publish: &PublishArgs{SessionID: "s", WorkerID: "w", Seq: 1}}},
		{"mirror", walRecord{Kind: walMirror}},
		{"import", walRecord{Kind: walImport}},
		{"snapshot", walRecord{Kind: walSnapshot}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "m.wal")
			w, err := OpenWAL(path, WALOptions{SyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.append(&tc.rec); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			w2, err := OpenWAL(path, WALOptions{SyncEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer w2.Close()
			if _, err := w2.Replay(NewManager()); err == nil {
				t.Fatal("replay accepted a record without its payload")
			}
			if _, err := ReplaySessionInto(path, "s", NewManager()); err == nil {
				t.Fatal("tail replay accepted a record without its payload")
			}
		})
	}
}
