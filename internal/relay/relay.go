// Package relay is the fabric's read fan-out tier. A Relay subscribes
// ONCE per session to the owning shard's delta stream — polling
// incrementally and republishing each batch into a private
// merge.Manager through the same generation-stamped merge.Transport the
// engines use, pointed downhill — and re-serves any number of
// downstream pollers from that local merged copy. Downstream reads hit
// the local manager's lock-free quiescent fast path and encoded-frame
// cache, so N viewers cost the owning shard one subscription stream
// instead of N poll round-trips, and because the codec is
// deterministic, relay-served frames are byte-identical to the owner's.
//
// Relays compose: a Relay's upstream may itself be a Relay (a
// relay-of-relay tree for geographic tiers).
//
// Self-healing mirrors the client rules: an upstream epoch change or
// same-epoch version regression (failover promotion, fault re-home)
// re-baselines the subscription — the local copy is dropped, which
// mints a fresh local epoch, so downstream clients full-resync in turn.
// An upstream that stops knowing the session (version 0) leaves the
// local copy serving its final state rather than tearing it down under
// the viewers.
package relay

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/rmi"
)

// Poller is the upstream read surface a relay subscribes through: the
// shard router's origin poller, a remote manager over RMI, or another
// Relay (tree tiers).
type Poller interface {
	Poll(args merge.PollArgs, reply *merge.PollReply) error
}

// ObjectName is the RMI registration name for a relay ("AIDARelay" —
// the manager registers each relay under ObjectName+"/"+name so one
// process can host several tiers).
func ObjectName(name string) string { return "AIDARelay/" + name }

// Relay mirrors sessions from an upstream Poller into a local
// merge.Manager and re-serves downstream polls from it.
type Relay struct {
	name     string
	upstream Poller
	// releaseUp: upstream replies crossed the wire, so their decoded
	// frames go back to the frame pool after the delta is built. Never
	// set for in-process upstreams, whose replies share the owner's
	// encode cache (releasing those would corrupt later polls).
	releaseUp bool
	local     *merge.Manager

	// Interval is the subscription poll cadence (0 = no background
	// loop; tests and embedders drive syncs via SyncNow). Set before
	// Subscribe.
	Interval time.Duration
	// AutoSubscribe makes the first downstream poll of an unknown
	// session open its subscription on demand. Set before use.
	AutoSubscribe bool

	mu     sync.Mutex
	closed bool
	subs   sync.Map // sessionID → *subscription

	upPolls   atomic.Int64
	downPolls atomic.Int64
	clients   atomic.Int64
}

type subscription struct {
	sid string

	// syncMu serializes syncOnce between the background loop and
	// SyncNow; the fields below it are guarded by it.
	syncMu    sync.Mutex
	tr        *merge.Transport
	upVersion int64
	upEpoch   int64

	// progress is the upstream per-worker progress at upVersion,
	// re-served verbatim on downstream polls (the local manager only
	// sees one aggregate "worker", the relay itself).
	progress atomic.Pointer[[]merge.WorkerProgress]
	// lastSyncNS is the wall clock of the last successful upstream
	// exchange (unix nanos); staleness lag is measured against it.
	lastSyncNS atomic.Int64
	// rebaselines mirrors the transport's re-baseline count (plus one
	// per epoch-flip transport replacement) into an atomic, so Stats
	// never touches the syncMu-guarded transport. rebaseBase carries
	// the total across transport replacements (guarded by syncMu).
	rebaselines atomic.Int64
	rebaseBase  int64
	// synced is set once an exchange has completed (or found the
	// upstream unchanged), so auto-subscribing polls know whether the
	// local copy is fresh enough to serve.
	synced atomic.Bool

	stop chan struct{}
	done chan struct{}
}

// New creates a relay named name subscribing through upstream. The
// upstream is probed for a WireReplies marker (RemotePoller has one) to
// decide frame-release discipline.
func New(name string, upstream Poller) *Relay {
	r := &Relay{name: name, upstream: upstream, local: merge.NewManager()}
	if w, ok := upstream.(interface{ WireReplies() bool }); ok && w.WireReplies() {
		r.releaseUp = true
	}
	return r
}

// Name returns the relay's registered name.
func (r *Relay) Name() string { return r.name }

// Local exposes the relay's private merged copy — tests inject
// NeedFull-style damage through it, and the gateway renders from it.
func (r *Relay) Local() *merge.Manager { return r.local }

// errUnchanged aborts a transport send without consuming a generation:
// the upstream had nothing new (or doesn't know the session), so the
// local version must not churn — downstream quiescent polls stay on
// the lock-free fast path.
var errUnchanged = errors.New("relay: upstream unchanged")

// errEpochFlip aborts a send because the upstream state was rebuilt
// (new epoch, or a same-epoch version regression): the local copy must
// be dropped and re-baselined.
var errEpochFlip = errors.New("relay: upstream epoch changed")

// Subscribe opens the session's upstream subscription (idempotent).
// With a positive Interval the background loop starts polling; either
// way the first sync happens on the next SyncNow or tick.
func (r *Relay) Subscribe(sessionID string) error {
	if _, ok := r.subs.Load(sessionID); ok {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("relay %s: closed", r.name)
	}
	if _, ok := r.subs.Load(sessionID); ok {
		return nil
	}
	s := &subscription{
		sid:  sessionID,
		tr:   merge.NewTransport(sessionID, "relay:"+r.name, r.local),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	r.subs.Store(sessionID, s)
	obsSubscriptions.Add(1)
	if r.Interval > 0 {
		go r.loop(s)
	} else {
		close(s.done)
	}
	return nil
}

func (r *Relay) loop(s *subscription) {
	defer close(s.done)
	t := time.NewTicker(r.Interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			// Errors are retried on the next tick; the transport's
			// re-baseline state machine covers anything half-applied.
			r.syncOnce(s)
		}
	}
}

// SyncNow forces one synchronous subscription exchange for a session
// (no-op for unsubscribed sessions). Tests use it for deterministic
// sequencing; the gateway uses it for freshness on first attach.
func (r *Relay) SyncNow(sessionID string) error {
	v, ok := r.subs.Load(sessionID)
	if !ok {
		return nil
	}
	return r.syncOnce(v.(*subscription))
}

// syncOnce performs one upstream poll → local publish exchange.
func (r *Relay) syncOnce(s *subscription) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	for attempt := 0; ; attempt++ {
		err := r.syncLocked(s)
		switch {
		case err == nil || errors.Is(err, errUnchanged):
			s.synced.Store(true)
			return nil
		case errors.Is(err, errEpochFlip) && attempt == 0:
			// The upstream state was rebuilt under us (failover
			// promotion, fault re-home). Drop the local copy — the
			// replacement session gets a fresh local epoch, so
			// downstream clients discard their mirrors too — and
			// re-baseline immediately.
			obsRebaselines.Inc()
			s.rebaseBase += s.tr.Rebaselines() + 1
			s.rebaselines.Store(s.rebaseBase)
			r.local.Drop(s.sid)
			s.tr = merge.NewTransport(s.sid, "relay:"+r.name, r.local)
			s.upVersion, s.upEpoch = 0, 0
			s.progress.Store(nil)
			continue
		case errors.Is(err, errEpochFlip):
			// Flipped twice in one sync: let the next tick retry.
			return nil
		default:
			return err
		}
	}
}

func (r *Relay) syncLocked(s *subscription) error {
	if s.upVersion != 0 && r.local.Version(s.sid) == 0 {
		// The local copy was wiped under the subscription (an injected
		// NeedFull, an operator drop). An unchanged upstream would
		// otherwise skip publishing forever; rebuild from a fresh
		// baseline instead.
		return errEpochFlip
	}
	var nextVersion, nextEpoch int64
	var nextProgress []merge.WorkerProgress
	t0 := time.Now()
	_, err := s.tr.Send(func(full bool) (merge.Snapshot, error) {
		args := merge.PollArgs{SessionID: s.sid}
		if full {
			args.Full = true
		} else {
			args.SinceVersion = s.upVersion
		}
		var pr merge.PollReply
		if err := r.upstream.Poll(args, &pr); err != nil {
			return merge.Snapshot{}, err
		}
		r.upPolls.Add(1)
		obsUpPolls.Inc()
		if pr.Version == 0 && pr.Epoch == 0 {
			// Upstream doesn't know the session (dropped, fenced, or
			// mid-failover): keep serving the local copy's final state.
			return merge.Snapshot{}, errUnchanged
		}
		if s.upEpoch != 0 && pr.Epoch != 0 && pr.Epoch != s.upEpoch {
			r.releaseReply(&pr)
			return merge.Snapshot{}, errEpochFlip
		}
		if !full && pr.Version < s.upVersion {
			// Same-epoch version regression: a legacy peer without epoch
			// stamps rebuilt the state. Treat like an epoch flip.
			r.releaseReply(&pr)
			return merge.Snapshot{}, errEpochFlip
		}
		if !full && !pr.Changed && pr.Version == s.upVersion {
			s.lastSyncNS.Store(time.Now().UnixNano())
			return merge.Snapshot{}, errUnchanged
		}
		d := &aida.DeltaState{Full: full}
		for _, e := range pr.Entries {
			st, err := e.State()
			if err != nil {
				return merge.Snapshot{}, err
			}
			d.Entries = append(d.Entries, aida.TreeEntry{Path: e.Path, Object: st})
		}
		if !full {
			d.Removed = pr.Removed
		}
		snap := merge.Snapshot{Delta: d, Log: strings.Join(pr.Logs, "\n")}
		for _, p := range pr.Progress {
			snap.Done += p.EventsDone
			snap.Total += p.EventsTotal
		}
		nextVersion, nextEpoch, nextProgress = pr.Version, pr.Epoch, pr.Progress
		// The decoded states above copied out of the frame buffers, so a
		// wire-crossing reply's frames can go back to the pool now.
		r.releaseReply(&pr)
		return snap, nil
	})
	if err != nil {
		return err
	}
	s.upVersion, s.upEpoch = nextVersion, nextEpoch
	s.progress.Store(&nextProgress)
	s.rebaselines.Store(s.rebaseBase + s.tr.Rebaselines())
	now := time.Now()
	s.lastSyncNS.Store(now.UnixNano())
	obsSyncSeconds.Observe(now.Sub(t0).Seconds())
	return nil
}

// releaseReply recycles a wire-decoded reply's frames. In-process
// upstream replies share the owner's encode cache and are left alone.
func (r *Relay) releaseReply(pr *merge.PollReply) {
	if r.releaseUp {
		pr.Release()
	}
}

// AddClient / DropClient track attached long-lived consumers (SSE
// clients) for the fan-out stats.
func (r *Relay) AddClient()  { r.clients.Add(1) }
func (r *Relay) DropClient() { r.clients.Add(-1) }

// Poll re-serves a downstream read from the local merged copy
// (RMI-compatible — the same wire surface as a Manager, so core.Client
// needs no new protocol).
func (r *Relay) Poll(args merge.PollArgs, reply *merge.PollReply) error {
	r.downPolls.Add(1)
	obsDownPolls.Inc()
	if r.AutoSubscribe {
		if v, ok := r.subs.Load(args.SessionID); !ok || !v.(*subscription).synced.Load() {
			if err := r.Subscribe(args.SessionID); err != nil {
				return err
			}
			// Serve the first poll fresh rather than empty — also when a
			// concurrent poll opened the subscription and its first
			// exchange is still in flight: SyncNow waits for it.
			if err := r.SyncNow(args.SessionID); err != nil {
				return err
			}
		}
	}
	if err := r.local.Poll(args, reply); err != nil {
		return err
	}
	if v, ok := r.subs.Load(args.SessionID); ok {
		if p := v.(*subscription).progress.Load(); p != nil && len(*p) > 0 {
			reply.Progress = *p
		}
	}
	return nil
}

// Unsubscribe stops a session's subscription loop and forgets its
// local copy.
func (r *Relay) Unsubscribe(sessionID string) {
	if v, ok := r.subs.LoadAndDelete(sessionID); ok {
		s := v.(*subscription)
		close(s.stop)
		<-s.done
		obsSubscriptions.Add(-1)
		r.local.Drop(sessionID)
	}
}

// Drop tears down a session (the router broadcasts session teardown
// here alongside the shards).
func (r *Relay) Drop(sessionID string) { r.Unsubscribe(sessionID) }

// Close stops every subscription loop. The local copies keep serving
// whatever they last mirrored until the relay is dropped.
func (r *Relay) Close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.subs.Range(func(k, v any) bool {
		s := v.(*subscription)
		close(s.stop)
		<-s.done
		r.subs.Delete(k)
		obsSubscriptions.Add(-1)
		return true
	})
}

// Stats is a relay's observable state for /fabric/status and the
// client watch view.
type Stats struct {
	Name     string
	Sessions int
	// UpPolls / DownPolls count subscription exchanges vs re-served
	// reads; FanOut is their ratio — how many downstream reads one
	// upstream exchange amortizes.
	UpPolls   int64
	DownPolls int64
	FanOut    float64
	// Clients counts attached long-lived consumers (SSE).
	Clients int64
	// StalenessMS is the oldest subscription's time since its last
	// successful upstream exchange — the staleness bound a reader of
	// this relay observes.
	StalenessMS float64
	// Rebaselines counts forwarded full baselines after the first
	// (upstream failovers, handoffs, injected NeedFulls).
	Rebaselines int64
}

// Stats snapshots the relay's counters. Lock-free.
func (r *Relay) Stats() Stats {
	st := Stats{
		Name:      r.name,
		UpPolls:   r.upPolls.Load(),
		DownPolls: r.downPolls.Load(),
		Clients:   r.clients.Load(),
	}
	now := time.Now().UnixNano()
	r.subs.Range(func(_, v any) bool {
		s := v.(*subscription)
		st.Sessions++
		if last := s.lastSyncNS.Load(); last > 0 {
			if ms := float64(now-last) / 1e6; ms > st.StalenessMS {
				st.StalenessMS = ms
			}
		}
		st.Rebaselines += s.rebaselines.Load()
		return true
	})
	if st.UpPolls > 0 {
		st.FanOut = float64(st.DownPolls) / float64(st.UpPolls)
	}
	return st
}

// RemotePoller adapts an RMI connection into a Poller for relays
// subscribing to a shard (or parent relay) on another node.
type RemotePoller struct {
	client *rmi.Client
	target string
}

// NewRemotePoller wraps an RMI connection. object is the remote
// registration name ("" = the root manager).
func NewRemotePoller(client *rmi.Client, object string) *RemotePoller {
	if object == "" {
		object = merge.RMIObjectName
	}
	return &RemotePoller{client: client, target: object + ".Poll"}
}

// Poll implements Poller over the wire.
func (p *RemotePoller) Poll(args merge.PollArgs, reply *merge.PollReply) error {
	return p.client.Call(p.target, args, reply)
}

// WireReplies marks replies as wire-decoded: their frames are pool
// buffers the relay must Release after re-publishing.
func (p *RemotePoller) WireReplies() bool { return true }
