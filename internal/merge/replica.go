// Replication surface: a shard router mirrors every accepted publish to
// a replica shard, which keeps a warm standby copy of the session by
// applying the same generation-stamped deltas — the SubMerger uplink
// machinery pointed sideways instead of upward. The replica stores each
// worker's delta tail without decoding it (Mirror is append-mostly, so
// synchronous mirroring stays cheap on the publish path) and only
// materializes trees when the tail grows long, when the copy is
// exported, or at Promote — the failover moment, when the standby
// becomes the session's live incarnation under a freshly bumped epoch.
//
// Epoch fencing closes the split-brain window: Fence records a floor
// epoch per session, and publishes, mirrors, and imports whose
// incarnation is at or below the floor are refused. Promotion fences
// the promoted copy against its dead ancestor's epoch, and the router
// best-effort self-fences the old primary, so a zombie shard can
// neither accept straggler publishes nor resurrect stale state into the
// promoted copy.

package merge

import (
	"errors"
	"fmt"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/obs"
)

// ErrFenced rejects writes against a session incarnation at or below
// its recorded fence floor — a straggler publish to a deposed primary,
// or a stale import trying to resurrect pre-failover state.
var ErrFenced = errors.New("merge: session incarnation fenced after failover")

// mirrorPendingMax bounds a worker's stored delta tail; past it the
// tail is materialized inline (amortized, so Mirror stays cheap).
const mirrorPendingMax = 64

// MirrorArgs is one accepted publish forwarded to the session's replica
// shard: the same worker delta, seq, and progress the primary applied,
// plus the primary's incarnation stamp so a mirror from a deposed
// primary is recognizably stale.
type MirrorArgs struct {
	SessionID string
	WorkerID  string
	Seq       int64
	// Epoch is the primary's session incarnation at the mirrored
	// publish; the replica adopts it and refuses mirrors from older
	// incarnations (or any at/below its fence floor).
	Epoch int64
	// Version is the primary's session version after the publish; the
	// replica's version tracks it so observers can watch the standby
	// catch up.
	Version int64
	Delta   *aida.DeltaState
	// Progress and logs ride along so a promoted copy serves the same
	// status panel the primary did.
	EventsDone  int64
	EventsTotal int64
	Log         string
	// Trace is the mirrored publish's trace context, forwarded from the
	// primary so the same trace ID is observable on the replica (and on
	// whatever that replica is later promoted into). Old gob peers
	// silently drop the field.
	Trace obs.TraceContext
}

// TraceCtx implements obs.Carrier (see PublishArgs.TraceCtx).
func (a MirrorArgs) TraceCtx() obs.TraceContext { return a.Trace }

// SetTraceCtx implements obs.Setter (see PublishArgs.SetTraceCtx).
func (a *MirrorArgs) SetTraceCtx(t obs.TraceContext) { a.Trace = t }

// MirrorReply acknowledges a mirrored publish.
type MirrorReply struct {
	Accepted bool
	// NeedFull asks the router to re-baseline the replica from the
	// primary (Export → Import): the replica has no baseline for this
	// worker or the delta tail has a gap.
	NeedFull bool
	Version  int64
}

// Mirror applies one forwarded publish to the session's standby copy
// (RMI-compatible). The delta is seq-checked exactly like a publish but
// stored undecoded on the worker's pending tail; Promote (or a long
// tail, or an Export) materializes it. A gap or missing baseline
// answers NeedFull and the router re-baselines the whole copy via
// Export/Import — the same resync contract every transport honors.
func (m *Manager) Mirror(args MirrorArgs, reply *MirrorReply) error {
	if args.SessionID == "" || args.WorkerID == "" {
		return fmt.Errorf("merge: mirror needs session and worker IDs")
	}
	if args.Delta == nil {
		return fmt.Errorf("merge: mirror from %s carries no delta", args.WorkerID)
	}
	s := m.session(args.SessionID)
	s.mu.Lock()
	defer s.mu.Unlock()
	reply.Version = s.version
	if f := s.fence.Load(); f > 0 && (args.Epoch == 0 || args.Epoch <= f) {
		return ErrFenced
	}
	if s.sealed.Load() {
		reply.NeedFull = true
		return nil
	}
	virgin := s.version == 0 && len(s.workers) == 0
	if virgin && args.Epoch != 0 {
		s.epoch.Store(args.Epoch)
	}
	if !virgin && args.Epoch != 0 && args.Epoch != s.epoch.Load() {
		// A different incarnation than the copy we hold (the primary
		// re-imported elsewhere, or this copy was promoted and the
		// mirror is from its deposed ancestor racing the fence). Ask
		// for a re-baseline: the import carries the right epoch, or is
		// itself fenced off.
		reply.NeedFull = true
		return nil
	}
	d := args.Delta
	w := s.worker(args.WorkerID)
	hasBase := w.tree != nil || len(w.pending) > 0
	if !d.Full {
		if args.Seq <= w.seq && hasBase {
			// Stale or duplicate mirror retry: already incorporated —
			// including via a seeding Import that raced this mirror, so
			// the traced publish is in this copy and its trace is noted.
			if args.Trace.Valid() {
				s.lastTrace.Store(args.Trace.TraceID)
			}
			return nil
		}
		if !hasBase || args.Seq != w.seq+1 {
			reply.NeedFull = true
			return nil
		}
	} else if hasBase && args.Seq <= w.seq && args.Seq != 0 {
		if args.Trace.Valid() {
			s.lastTrace.Store(args.Trace.TraceID)
		}
		return nil
	}
	if d.Full {
		// A full baseline supersedes everything queued before it.
		w.pending = w.pending[:0]
		w.tree = nil
	}
	w.pending = append(w.pending, d)
	if len(w.pending) >= mirrorPendingMax {
		if err := w.materialize(); err != nil {
			return err
		}
	}
	w.seq = args.Seq
	w.done, w.total = args.EventsDone, args.EventsTotal
	if args.Version > s.version {
		s.version = args.Version
	}
	s.appendLog(args.Log)
	s.commitLocked()
	if args.Trace.Valid() {
		s.lastTrace.Store(args.Trace.TraceID)
	}
	reply.Accepted = true
	reply.Version = s.version
	return m.walAppend(&walRecord{Kind: walMirror, Mirror: &args})
}

// materialize folds the worker's pending delta tail into its retained
// tree. Caller holds the session write lock.
func (w *workerState) materialize() error {
	for _, d := range w.pending {
		dst := w.tree
		if d.Full {
			dst = aida.NewTree()
		} else if dst == nil {
			return fmt.Errorf("merge: mirrored delta tail has no baseline")
		}
		for _, e := range d.Entries {
			obj, err := e.Object.Restore()
			if err != nil {
				return fmt.Errorf("merge: materializing mirrored delta at %q: %w", e.Path, err)
			}
			if err := dst.PutAt(e.Path, obj); err != nil {
				return err
			}
		}
		if d.Full {
			w.tree = dst
		} else {
			for _, p := range d.Removed {
				w.tree.Rm(p)
			}
		}
	}
	w.pending = nil
	return nil
}

// PromoteArgs turns a session's standby copy into its live incarnation.
type PromoteArgs struct {
	SessionID string
	// Epoch, when above the copy's current stamp, is used as the
	// promoted epoch instead of generating a fresh one — how log replay
	// reproduces the exact incarnation clients already saw. Zero (the
	// live-failover case) always generates.
	Epoch int64
}

// PromoteReply reports the promoted incarnation.
type PromoteReply struct {
	// Found is false when there is nothing worth promoting here (no
	// session, or an empty shell) — the router then falls back to the
	// lossy eviction path.
	Found   bool
	Version int64
	// Epoch is the promoted copy's freshly bumped incarnation stamp;
	// clients full-resync on it.
	Epoch int64
	// PrevEpoch is the incarnation the copy mirrored — the dead
	// primary's stamp, which the router uses to fence stragglers.
	PrevEpoch int64
}

// Promote makes the standby copy live (RMI-compatible): every worker's
// pending delta tail is materialized, the merged tree is rebuilt, and
// the session gets a bumped epoch so every client discards its mirror
// and full-resyncs. The previous epoch becomes the session's fence
// floor: no mirror or import from the dead ancestor's incarnation can
// ever overwrite the promoted state.
func (m *Manager) Promote(args PromoteArgs, reply *PromoteReply) error {
	s := m.lookup(args.SessionID)
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version == 0 {
		// An empty shell: a tombstone, or a copy that never got a
		// baseline (NeedFull-answered mirrors leave empty worker shells
		// behind). Promoting it would "recover" nothing — report not
		// found so the router records the session as lost instead of
		// flipping routing onto vacuum.
		return nil
	}
	for _, id := range s.workerIDs {
		if err := s.workers[id].materialize(); err != nil {
			return err
		}
	}
	prev := s.epoch.Load()
	next := args.Epoch
	if next <= prev {
		next = sessionEpoch.Add(1)
		if next <= prev {
			// Epoch seeds are process-start stamps, so values from
			// another manager's process are not globally ordered; the
			// fence only needs per-session monotonicity, which this
			// restores.
			next = prev + 1
		}
	}
	s.epoch.Store(next)
	if prev > s.fence.Load() {
		s.fence.Store(prev)
	}
	s.sealed.Store(false)
	s.version++
	if err := s.rebuild(); err != nil {
		return err
	}
	s.commitLocked()
	reply.Found = true
	reply.Version = s.version
	reply.Epoch, reply.PrevEpoch = next, prev
	return m.walAppend(&walRecord{Kind: walPromote, Session: args.SessionID, Epoch: next})
}

// FenceArgs records a fence floor for a session: state at or below
// Epoch is refused on every write surface. Epoch 0 self-fences the
// session at its own current incarnation — the call a router makes
// against a deposed primary so its copy can neither accept straggler
// publishes nor be exported over the promoted incarnation.
type FenceArgs struct {
	SessionID string
	Epoch     int64
}

// FenceReply reports the resulting fence floor.
type FenceReply struct {
	Found bool
	Epoch int64
}

// Fence raises a session's fence floor (RMI-compatible). Floors only
// ever rise. A self-fence (Epoch 0) of an unknown session is a no-op;
// an explicit floor creates a fenced shell so even a resurrection via
// late import is refused.
func (m *Manager) Fence(args FenceArgs, reply *FenceReply) error {
	if args.SessionID == "" {
		return errors.New("merge: fence needs a session ID")
	}
	s := m.lookup(args.SessionID)
	if s == nil {
		if args.Epoch == 0 {
			return nil
		}
		s = m.session(args.SessionID)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	floor := args.Epoch
	if floor == 0 {
		floor = s.epoch.Load()
	}
	if floor > s.fence.Load() {
		s.fence.Store(floor)
	}
	reply.Found = true
	reply.Epoch = s.fence.Load()
	return m.walAppend(&walRecord{Kind: walFence, Session: args.SessionID, Epoch: floor})
}

// Epoch reports a session's current incarnation stamp (0 for unknown
// sessions). Lock-free.
func (m *Manager) Epoch(sessionID string) int64 {
	if s := m.lookup(sessionID); s != nil {
		return s.epoch.Load()
	}
	return 0
}

// fenced reports whether the session's current incarnation sits at or
// below its fence floor — a deposed copy that must refuse writes and
// answer polls like an unknown session. Lock-free.
func (s *sessionState) fenced() bool {
	f := s.fence.Load()
	return f > 0 && s.epoch.Load() <= f
}
