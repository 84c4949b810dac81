package perf

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/des"
	"github.com/ipa-grid/ipa/internal/gram"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/netsim"
	"github.com/ipa-grid/ipa/internal/scheduler"
	"github.com/ipa-grid/ipa/internal/shard"
)

// A1 — the dedicated timely queue (§2.3, §6). Engine-start latency on a
// fully loaded cluster, with and without a preempting interactive queue.

// QueueAblationResult reports start latencies.
type QueueAblationResult struct {
	// DedicatedMS is the engine-start latency with a preempting
	// interactive queue.
	DedicatedMS int64
	// SharedMS is the latency when engines wait in the batch queue
	// behind backlogged work (bounded by the probe timeout).
	SharedMS int64
	// SharedTimedOut reports the shared-queue probe never started.
	SharedTimedOut bool
}

// QueueAblation measures both configurations on a real scheduler whose
// batch backlog holds every slot for longer than the probe window.
func QueueAblation(nodes int, probeTimeout time.Duration) (QueueAblationResult, error) {
	var out QueueAblationResult
	run := func(preempting bool) (time.Duration, bool, error) {
		var nc []scheduler.NodeConfig
		for i := 0; i < nodes; i++ {
			nc = append(nc, scheduler.NodeConfig{Name: fmt.Sprintf("n%02d", i), Slots: 1})
		}
		cluster, err := scheduler.New(nc, []scheduler.QueueConfig{
			{Name: "interactive", Priority: 10, Preempting: preempting},
			{Name: "batch", Priority: 1, Preemptible: true},
		})
		if err != nil {
			return 0, false, err
		}
		defer cluster.Close()
		jm := gram.NewJobManager(cluster)
		block := make(chan struct{})
		defer close(block)
		jm.RegisterLauncher("batch-work", func(ctx context.Context, node string, idx int, jd gram.JobDescription) error {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil
		})
		jm.RegisterLauncher("ipa-engine", func(ctx context.Context, node string, idx int, jd gram.JobDescription) error {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return nil
		})
		// Saturate the farm with long batch work (plus a backlog).
		if _, err := jm.Submit(gram.JobDescription{Executable: "batch-work", Count: nodes * 2, Queue: "batch"}); err != nil {
			return 0, false, err
		}
		job, err := jm.Submit(gram.JobDescription{Executable: "ipa-engine", Count: nodes, Queue: "interactive"})
		if err != nil {
			return 0, false, err
		}
		lat, err := job.WaitActive(probeTimeout)
		timedOut := err != nil
		job.Cancel()
		return lat, timedOut, nil
	}
	ded, dTimeout, err := run(true)
	if err != nil {
		return out, err
	}
	if dTimeout {
		return out, fmt.Errorf("perf: dedicated queue timed out — preemption broken")
	}
	shared, sTimeout, err := run(false)
	if err != nil {
		return out, err
	}
	out.DedicatedMS = ded.Milliseconds()
	out.SharedMS = shared.Milliseconds()
	out.SharedTimedOut = sTimeout
	return out, nil
}

// A2 — hierarchical merging (§2.5). Root-manager load (publishes handled
// by the root) and wall time, flat vs two-level.

// MergeAblationRow is one configuration's outcome.
type MergeAblationRow struct {
	Workers       int
	Mode          string // "flat" or "tree"
	RootPublishes int64
	WallMS        int64
}

// MergeAblation publishes `rounds` snapshots from each of `workers`
// engines, each snapshot carrying `objects` histograms, in both shapes.
func MergeAblation(workers, rounds, objects, groupSize int) ([]MergeAblationRow, error) {
	mkDelta := func(seed int) *aida.DeltaState {
		t := aida.NewTree()
		for o := 0; o < objects; o++ {
			h := aida.NewHistogram1D(fmt.Sprintf("h%d", o), "", 50, 0, 100)
			for f := 0; f < 100; f++ {
				h.Fill(float64((seed*31 + o*17 + f) % 100))
			}
			t.Put("/a", h)
		}
		d, _ := t.FullDelta()
		return d
	}
	var out []MergeAblationRow

	// Flat: every engine publishes straight to the root.
	root := merge.NewManager()
	counting := &countingPublisher{inner: root}
	start := time.Now()
	var rep merge.PublishReply
	for r := 0; r < rounds; r++ {
		for w := 0; w < workers; w++ {
			if err := counting.Publish(merge.PublishArgs{
				SessionID: "s", WorkerID: fmt.Sprintf("w%03d", w), Seq: int64(r + 1),
				Delta: mkDelta(w), EventsDone: int64(r), EventsTotal: int64(rounds),
			}, &rep); err != nil {
				return nil, err
			}
		}
	}
	var poll merge.PollReply
	if err := root.Poll(merge.PollArgs{SessionID: "s"}, &poll); err != nil {
		return nil, err
	}
	out = append(out, MergeAblationRow{Workers: workers, Mode: "flat",
		RootPublishes: counting.count, WallMS: time.Since(start).Milliseconds()})

	// Tree: groups of groupSize behind sub-mergers that batch a full
	// group round before forwarding.
	root2 := merge.NewManager()
	counting2 := &countingPublisher{inner: root2}
	groups := map[int]*merge.SubMerger{}
	start = time.Now()
	for r := 0; r < rounds; r++ {
		for w := 0; w < workers; w++ {
			gid := w / groupSize
			sm := groups[gid]
			if sm == nil {
				sm = merge.NewSubMerger(fmt.Sprintf("group-%02d", gid), "s", counting2, groupSize)
				groups[gid] = sm
			}
			if err := sm.Publish(merge.PublishArgs{
				SessionID: "s", WorkerID: fmt.Sprintf("w%03d", w), Seq: int64(r + 1),
				Delta: mkDelta(w), EventsDone: int64(r), EventsTotal: int64(rounds),
			}, &rep); err != nil {
				return nil, err
			}
		}
	}
	for _, sm := range groups {
		if err := sm.Flush(); err != nil {
			return nil, err
		}
	}
	if err := root2.Poll(merge.PollArgs{SessionID: "s"}, &poll); err != nil {
		return nil, err
	}
	out = append(out, MergeAblationRow{Workers: workers, Mode: "tree",
		RootPublishes: counting2.count, WallMS: time.Since(start).Milliseconds()})
	return out, nil
}

type countingPublisher struct {
	inner *merge.Manager
	count int64
}

func (c *countingPublisher) Publish(args merge.PublishArgs, reply *merge.PublishReply) error {
	c.count++
	return c.inner.Publish(args, reply)
}

// A3 — parallel GridFTP streams (§3.4). Transfer time of one file over a
// high-latency WAN whose per-stream throughput is window-limited.

// StreamAblationRow is one stream-count outcome.
type StreamAblationRow struct {
	Streams int
	Seconds float64
	Speedup float64
}

// StreamAblation models a 2006 transatlantic path: per-TCP-stream rate
// capped (window/RTT) well under the 10 MB/s bottleneck link.
func StreamAblation(sizeMB float64, streamCounts []int) []StreamAblationRow {
	const linkMBps = 10.0
	const perStreamMBps = 1.4 // 64 KB window / ~45 ms RTT
	var out []StreamAblationRow
	var base float64
	for _, s := range streamCounts {
		k := des.New()
		net := netsim.New(k)
		link := net.AddLink("wan", linkMBps)
		var done des.Time
		barrier := des.NewBarrier(s, func() { done = k.Now() })
		for i := 0; i < s; i++ {
			net.StartFlow(sizeMB/float64(s), []*netsim.Link{link},
				netsim.FlowOpts{RateCap: perStreamMBps, Latency: 0.2},
				func(*netsim.Flow) { barrier.Arrive() })
		}
		if err := k.Run(); err != nil {
			panic(err)
		}
		row := StreamAblationRow{Streams: s, Seconds: float64(done)}
		if base == 0 {
			base = row.Seconds
		}
		row.Speedup = base / row.Seconds
		out = append(out, row)
	}
	return out
}

// A6 — hierarchical delta forwarding (§2.5 composed with the
// incremental pipeline). Upstream cost of SubMerger flushes when each
// group forwards the touched-only deltas of its merged tree.

// HierarchyAblationRow is the forwarding outcome.
type HierarchyAblationRow struct {
	Groups  int
	Workers int // per group
	Rounds  int
	Objects int
	Touched int
	// UpstreamBytesPerFlush is the mean gob-encoded size of one upstream
	// publish in steady state (what the RMI layer would put on the wire).
	UpstreamBytesPerFlush int64
	// AllocsPerRound is the mean heap allocation count per round
	// (publishes + flushes + the upstream wire encode).
	AllocsPerRound float64
	WallMS         int64
}

// wirePublisher gob-encodes every publish — the work the RMI layer
// would do — before delegating, and accumulates the wire bytes.
type wirePublisher struct {
	inner merge.Publisher
	bytes int64
	calls int64
}

func (p *wirePublisher) Publish(args merge.PublishArgs, reply *merge.PublishReply) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&args); err != nil {
		return err
	}
	p.bytes += int64(buf.Len())
	p.calls++
	return p.inner.Publish(args, reply)
}

// HierarchyAblation runs `rounds` steady-state rounds over groups×
// workers engines (each holding `objects` histograms of which `touched`
// change per round) behind per-group SubMergers.
func HierarchyAblation(groups, workersPerGroup, rounds, objects, touched int) (HierarchyAblationRow, error) {
	if touched > objects {
		touched = objects
	}
	root := merge.NewManager()
	wire := &wirePublisher{inner: root}
	subs := make([]*merge.SubMerger, groups)
	for g := range subs {
		subs[g] = merge.NewSubMerger(fmt.Sprintf("group-%02d", g), "s", wire, workersPerGroup)
	}
	nw := groups * workersPerGroup
	trees := make([]*aida.Tree, nw)
	hists := make([][]*aida.Histogram1D, nw)
	for w := range trees {
		trees[w] = aida.NewTree()
		hists[w] = make([]*aida.Histogram1D, objects)
		for o := 0; o < objects; o++ {
			h, err := trees[w].H1D("/a", fmt.Sprintf("h%02d", o), "", 100, 0, 100)
			if err != nil {
				return HierarchyAblationRow{}, err
			}
			for f := 0; f < 1000; f++ {
				h.Fill(float64((w*31 + f) % 100))
			}
			hists[w][o] = h
		}
	}
	seqs := make([]int64, nw)
	var rep merge.PublishReply
	publish := func(w int) error {
		d, err := trees[w].Delta()
		if err != nil {
			return err
		}
		seqs[w]++
		return subs[w/workersPerGroup].Publish(merge.PublishArgs{
			SessionID: "s", WorkerID: fmt.Sprintf("w%03d", w), Seq: seqs[w], Delta: d,
		}, &rep)
	}
	// Baseline round (not measured): every worker announces its tree.
	for w := 0; w < nw; w++ {
		if err := publish(w); err != nil {
			return HierarchyAblationRow{}, err
		}
	}
	baseBytes, baseCalls := wire.bytes, wire.calls
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for w := 0; w < nw; w++ {
			for o := 0; o < touched; o++ {
				hists[w][(r+o)%objects].Fill(float64((r + o) % 100))
			}
			if err := publish(w); err != nil {
				return HierarchyAblationRow{}, err
			}
		}
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	flushes := wire.calls - baseCalls
	if flushes == 0 {
		return HierarchyAblationRow{}, fmt.Errorf("perf: hierarchy ablation made no upstream flushes")
	}
	return HierarchyAblationRow{
		Groups: groups, Workers: workersPerGroup,
		Rounds: rounds, Objects: objects, Touched: touched,
		UpstreamBytesPerFlush: (wire.bytes - baseBytes) / flushes,
		AllocsPerRound:        float64(after.Mallocs-before.Mallocs) / float64(rounds),
		WallMS:                wall.Milliseconds(),
	}, nil
}

// A8 — compressed wire frames. Size of one steady-state snapshot in
// plain (version 1) vs DEFLATE (version 2) frames — the per-connection
// choice for WAN-deployed workers.

// WireCompressionRow is the two frame sizes for one snapshot shape.
type WireCompressionRow struct {
	Objects    int
	PlainBytes int
	FlateBytes int
}

// WireCompressionAblation encodes a baseline snapshot of `objects`
// partially filled histograms both ways.
func WireCompressionAblation(objects int) (WireCompressionRow, error) {
	tree := aida.NewTree()
	for o := 0; o < objects; o++ {
		h, err := tree.H1D("/a", fmt.Sprintf("h%02d", o), "", 200, 0, 100)
		if err != nil {
			return WireCompressionRow{}, err
		}
		// Sparse fills: most bins empty, the WAN-snapshot shape where
		// compression pays.
		for f := 0; f < 50; f++ {
			h.Fill(float64((o*13 + f*7) % 100))
		}
	}
	d, err := tree.FullDelta()
	if err != nil {
		return WireCompressionRow{}, err
	}
	plain, err := aida.AppendDeltaState(nil, d)
	if err != nil {
		return WireCompressionRow{}, err
	}
	packed, err := aida.AppendDeltaStateFlate(nil, d)
	if err != nil {
		return WireCompressionRow{}, err
	}
	return WireCompressionRow{Objects: objects, PlainBytes: len(plain), FlateBytes: len(packed)}, nil
}

// A4 — incremental result polling (§3.7). Wire bytes per poll cycle when
// only one of H histograms changed, full vs incremental.

// PollAblationResult compares polling strategies.
type PollAblationResult struct {
	Objects          int
	FullBytes        int
	IncrementalBytes int
}

// PollAblation publishes H histograms, then one delta, and measures the
// gob-encoded reply sizes of a full poll vs an incremental poll.
func PollAblation(objects int) (PollAblationResult, error) {
	m := merge.NewManager()
	t := aida.NewTree()
	var changed *aida.Histogram1D
	for o := 0; o < objects; o++ {
		h, err := t.H1D("/a", fmt.Sprintf("h%02d", o), "", 100, 0, 100)
		if err != nil {
			return PollAblationResult{}, err
		}
		for f := 0; f < 1000; f++ {
			h.Fill(float64(f % 100))
		}
		if o == 0 {
			changed = h
		}
	}
	publish := func(seq int64) error {
		d, err := t.Delta()
		if err != nil {
			return err
		}
		var rep merge.PublishReply
		return m.Publish(merge.PublishArgs{SessionID: "s", WorkerID: "w", Seq: seq, Delta: d}, &rep)
	}
	if err := publish(1); err != nil {
		return PollAblationResult{}, err
	}
	var first merge.PollReply
	if err := m.Poll(merge.PollArgs{SessionID: "s"}, &first); err != nil {
		return PollAblationResult{}, err
	}
	// One histogram changes.
	for f := 0; f < 7; f++ {
		changed.Fill(50)
	}
	if err := publish(2); err != nil {
		return PollAblationResult{}, err
	}
	size := func(args merge.PollArgs) (int, error) {
		var reply merge.PollReply
		if err := m.Poll(args, &reply); err != nil {
			return 0, err
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&reply); err != nil {
			return 0, err
		}
		return buf.Len(), nil
	}
	full, err := size(merge.PollArgs{SessionID: "s", Full: true})
	if err != nil {
		return PollAblationResult{}, err
	}
	inc, err := size(merge.PollArgs{SessionID: "s", SinceVersion: first.Version})
	if err != nil {
		return PollAblationResult{}, err
	}
	return PollAblationResult{Objects: objects, FullBytes: full, IncrementalBytes: inc}, nil
}

// A9 — the sharded merge fabric. Publish+poll throughput of N
// concurrent sessions against routers of increasing shard count: one
// manager serializes every session behind one lock, while consistent-
// hash sharding lets unrelated sessions merge and poll in parallel.

// ShardAblationRow is one shard count's outcome.
type ShardAblationRow struct {
	Shards   int
	Sessions int
	Workers  int // per session
	Rounds   int
	Objects  int
	// PublishesPerSec / PollsPerSec are aggregate fabric throughput
	// across all concurrent sessions.
	PublishesPerSec float64
	PollsPerSec     float64
	WallMS          int64
}

// ShardAblation runs `sessions` concurrent sessions — each driving
// `workers` delta-publishing engines (1 of `objects` histograms touched
// per round) and one incremental polling client — against a router over
// each shard count in turn.
func ShardAblation(shardCounts []int, sessions, workers, rounds, objects int) ([]ShardAblationRow, error) {
	var out []ShardAblationRow
	for _, n := range shardCounts {
		router := shard.NewRouter(0)
		for i := 0; i < n; i++ {
			if err := router.AddShard(fmt.Sprintf("shard%02d", i), merge.NewManager()); err != nil {
				return nil, err
			}
		}
		errs := make(chan error, sessions)
		start := time.Now()
		for s := 0; s < sessions; s++ {
			sid := fmt.Sprintf("sess-%02d", s)
			go func() {
				trees := make([]*aida.Tree, workers)
				hists := make([][]*aida.Histogram1D, workers)
				transports := make([]*merge.Transport, workers)
				for w := range trees {
					trees[w] = aida.NewTree()
					hists[w] = make([]*aida.Histogram1D, objects)
					for o := 0; o < objects; o++ {
						h, err := trees[w].H1D("/a", fmt.Sprintf("h%02d", o), "", 100, 0, 100)
						if err != nil {
							errs <- err
							return
						}
						for f := 0; f < 200; f++ {
							h.Fill(float64((w*31 + f) % 100))
						}
						hists[w][o] = h
					}
					transports[w] = merge.NewTransport(sid, fmt.Sprintf("w%02d", w), router)
				}
				var sinceVersion int64
				for r := 0; r < rounds; r++ {
					for w := 0; w < workers; w++ {
						hists[w][r%objects].Fill(float64(r % 100))
						_, err := transports[w].Send(func(full bool) (merge.Snapshot, error) {
							var d *aida.DeltaState
							var err error
							if full {
								d, err = trees[w].FullDelta()
							} else {
								d, err = trees[w].Delta()
							}
							return merge.Snapshot{Delta: d}, err
						})
						if err != nil {
							errs <- err
							return
						}
					}
					var poll merge.PollReply
					if err := router.Poll(merge.PollArgs{SessionID: sid, SinceVersion: sinceVersion}, &poll); err != nil {
						errs <- err
						return
					}
					sinceVersion = poll.Version
				}
				errs <- nil
			}()
		}
		for s := 0; s < sessions; s++ {
			if err := <-errs; err != nil {
				return nil, err
			}
		}
		wall := time.Since(start)
		secs := wall.Seconds()
		if secs <= 0 {
			secs = 1e-9
		}
		out = append(out, ShardAblationRow{
			Shards: n, Sessions: sessions, Workers: workers, Rounds: rounds, Objects: objects,
			PublishesPerSec: float64(sessions*rounds*workers) / secs,
			PollsPerSec:     float64(sessions*rounds) / secs,
			WallMS:          wall.Milliseconds(),
		})
	}
	return out, nil
}

// A11 — placement as a subsystem. (a) RCU routing: quiescent-poll
// throughput through a Router whose owner resolution is one atomic
// placement-table load, with no global lock on the read path. (b)
// Load-weighted rebalancing: a Balancer probing lock-free per-session
// publish+poll rates migrates the hottest sessions off an overloaded
// shard. (c) Fault re-homing: a killed shard is detected by
// the Health prober, its sessions re-home lazily, and the engines'
// re-baseline restores every update.

// RouteAblationRow is the routing outcome.
type RouteAblationRow struct {
	Shards   int
	Sessions int
	Pollers  int // per session
	Polls    int // per poller
	// PollsPerSec is aggregate quiescent-poll throughput — isolating
	// the router's resolution cost, since the managers answer these
	// from one atomic load.
	PollsPerSec float64
	WallMS      int64
}

// RouteAblation hammers a router of `shards` managers with
// sessions×pollers goroutines, each issuing `polls` quiescent polls.
func RouteAblation(shards, sessions, pollers, polls int) (RouteAblationRow, error) {
	router := shard.NewRouter(0)
	for i := 0; i < shards; i++ {
		if err := router.AddShard(fmt.Sprintf("shard%02d", i), merge.NewManager()); err != nil {
			return RouteAblationRow{}, err
		}
	}
	versions := make([]int64, sessions)
	for s := 0; s < sessions; s++ {
		tree := aida.NewTree()
		h, err := tree.H1D("/a", "h", "", 100, 0, 100)
		if err != nil {
			return RouteAblationRow{}, err
		}
		for f := 0; f < 200; f++ {
			h.Fill(float64(f % 100))
		}
		d, err := tree.FullDelta()
		if err != nil {
			return RouteAblationRow{}, err
		}
		var rep merge.PublishReply
		if err := router.Publish(merge.PublishArgs{
			SessionID: fmt.Sprintf("sess-%02d", s), WorkerID: "w0", Seq: 1, Delta: d,
		}, &rep); err != nil {
			return RouteAblationRow{}, err
		}
		versions[s] = rep.Version
	}
	errs := make(chan error, sessions*pollers)
	start := time.Now()
	for s := 0; s < sessions; s++ {
		sid := fmt.Sprintf("sess-%02d", s)
		since := versions[s]
		for p := 0; p < pollers; p++ {
			go func() {
				for i := 0; i < polls; i++ {
					var reply merge.PollReply
					if err := router.Poll(merge.PollArgs{SessionID: sid, SinceVersion: since}, &reply); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
	}
	var firstErr error
	for i := 0; i < sessions*pollers; i++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	wall := time.Since(start)
	if firstErr != nil {
		return RouteAblationRow{}, firstErr
	}
	secs := wall.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	return RouteAblationRow{
		Shards: shards, Sessions: sessions, Pollers: pollers, Polls: polls,
		PollsPerSec: float64(sessions*pollers*polls) / secs,
		WallMS:      wall.Milliseconds(),
	}, nil
}

// RebalanceAblationRow is one rebalance mode's outcome.
type RebalanceAblationRow struct {
	Mode     string // "off" or "on"
	Shards   int
	Sessions int
	Hot      int // hot sessions, all ring-homed on one shard
	Rounds   int
	// Moves is how many sessions the balancer migrated.
	Moves int64
	// HotShare is the hottest shard's share of the steady per-round load
	// at the end of the run (1/shards would be perfect balance).
	HotShare float64
	// Diverged reports any session whose merged state no longer matches
	// the flat single-manager reference — must stay false.
	Diverged bool
	WallMS   int64
}

// ablationWorker couples one session's fabric transport with a
// flat-reference twin, so the placement ablations can verify merged
// state bit-for-bit after moves and faults.
type ablationWorker struct {
	sid       string
	tree, ref *aida.Tree
	h, refH   *aida.Histogram1D
	tr, refTr *merge.Transport
	perRound  int64 // publishes+polls per round (the rebalance skew)
}

func newAblationWorker(sid string, fabric, flat merge.Publisher) (*ablationWorker, error) {
	w := &ablationWorker{sid: sid, tree: aida.NewTree(), ref: aida.NewTree()}
	var err error
	if w.h, err = w.tree.H1D("/h", "x", "", 10, 0, 10); err != nil {
		return nil, err
	}
	if w.refH, err = w.ref.H1D("/h", "x", "", 10, 0, 10); err != nil {
		return nil, err
	}
	w.tr = merge.NewTransport(sid, "w0", fabric)
	w.refTr = merge.NewTransport(sid, "w0", flat)
	return w, nil
}

// sendSnapshot publishes tree's next delta through tr (a full baseline
// when the transport's state machine asks for one).
func sendSnapshot(tr *merge.Transport, tree *aida.Tree) error {
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

// RebalanceAblation drives `hot` sessions (all ring-homed on one shard)
// at `skew`× the load of `cold` background sessions for `rounds`
// rounds, with the balancer probing between rounds, rebalancing off vs
// on.
func RebalanceAblation(shards, hot, cold, rounds, skew int) ([]RebalanceAblationRow, error) {
	var out []RebalanceAblationRow
	for _, mode := range []string{"off", "on"} {
		router := shard.NewRouter(0)
		for i := 0; i < shards; i++ {
			if err := router.AddShard(fmt.Sprintf("shard%02d", i), merge.NewManager()); err != nil {
				return nil, err
			}
		}
		flat := merge.NewManager()
		hotShard := "shard00"
		var workers []*ablationWorker
		mk := func(sid string, perRound int64) error {
			w, err := newAblationWorker(sid, router, flat)
			if err != nil {
				return err
			}
			w.perRound = perRound
			workers = append(workers, w)
			return nil
		}
		for i, n := 0, 0; n < hot; i++ {
			sid := fmt.Sprintf("hot-%d", i)
			if router.Placement(sid) != hotShard {
				continue
			}
			if err := mk(sid, int64(skew)); err != nil {
				return nil, err
			}
			n++
		}
		for i := 0; i < cold; i++ {
			if err := mk(fmt.Sprintf("cold-%d", i), 1); err != nil {
				return nil, err
			}
		}
		b := shard.NewBalancer(router)
		b.DisableRebalance = mode == "off"
		b.MaxMoves = 2
		b.Band = 0.25
		start := time.Now()
		for _, w := range workers { // baseline
			w.h.Fill(1)
			w.refH.Fill(1)
			if err := sendSnapshot(w.tr, w.tree); err != nil {
				return nil, err
			}
			if err := sendSnapshot(w.refTr, w.ref); err != nil {
				return nil, err
			}
		}
		if _, err := b.RunOnce(); err != nil { // warm the rate window
			return nil, err
		}
		for r := 0; r < rounds; r++ {
			for _, w := range workers {
				for k := int64(0); k < w.perRound; k++ {
					w.h.Fill(float64(r % 10))
					w.refH.Fill(float64(r % 10))
					if err := sendSnapshot(w.tr, w.tree); err != nil {
						return nil, err
					}
					if err := sendSnapshot(w.refTr, w.ref); err != nil {
						return nil, err
					}
					var reply merge.PollReply
					if err := router.Poll(merge.PollArgs{SessionID: w.sid}, &reply); err != nil {
						return nil, err
					}
				}
			}
			if _, err := b.RunOnce(); err != nil {
				return nil, err
			}
		}
		wall := time.Since(start)
		// Final load distribution from the drivers' steady rates and the
		// router's final placements.
		perShard := map[string]int64{}
		var total int64
		for _, w := range workers {
			perShard[router.Placement(w.sid)] += w.perRound
			total += w.perRound
		}
		var hottest int64
		for _, l := range perShard {
			if l > hottest {
				hottest = l
			}
		}
		row := RebalanceAblationRow{
			Mode: mode, Shards: shards, Sessions: len(workers), Hot: hot, Rounds: rounds,
			Moves:    b.Moves(),
			HotShare: float64(hottest) / float64(total),
			WallMS:   wall.Milliseconds(),
		}
		for _, w := range workers {
			same, err := statesMatch(router, flat, w.sid)
			if err != nil {
				return nil, err
			}
			if !same {
				row.Diverged = true
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// statesMatch compares a session's full merged state between two poll
// surfaces.
func statesMatch(a, b interface {
	Poll(args merge.PollArgs, reply *merge.PollReply) error
}, sid string) (bool, error) {
	read := func(p interface {
		Poll(args merge.PollArgs, reply *merge.PollReply) error
	}) (map[string][]byte, error) {
		var reply merge.PollReply
		if err := p.Poll(merge.PollArgs{SessionID: sid, Full: true}, &reply); err != nil {
			return nil, err
		}
		out := make(map[string][]byte, len(reply.Entries))
		for _, e := range reply.Entries {
			st, err := e.State()
			if err != nil {
				return nil, err
			}
			buf, err := aida.AppendObjectState(nil, &st)
			if err != nil {
				return nil, err
			}
			out[e.Path] = buf
		}
		return out, nil
	}
	sa, err := read(a)
	if err != nil {
		return false, err
	}
	sb, err := read(b)
	if err != nil {
		return false, err
	}
	if len(sa) != len(sb) {
		return false, nil
	}
	for k, v := range sa {
		if !bytes.Equal(sb[k], v) {
			return false, nil
		}
	}
	return true, nil
}

// faultShard wraps a Manager and fails every call once killed — the
// crash model for the recovery ablation.
type faultShard struct {
	inner *merge.Manager
	dead  atomic.Bool
}

var errShardDown = fmt.Errorf("perf: injected shard death")

func (f *faultShard) call(do func() error) error {
	if f.dead.Load() {
		return errShardDown
	}
	return do()
}

func (f *faultShard) Publish(a merge.PublishArgs, r *merge.PublishReply) error {
	return f.call(func() error { return f.inner.Publish(a, r) })
}
func (f *faultShard) Poll(a merge.PollArgs, r *merge.PollReply) error {
	return f.call(func() error { return f.inner.Poll(a, r) })
}
func (f *faultShard) Reset(a merge.ResetArgs, r *merge.ResetReply) error {
	return f.call(func() error { return f.inner.Reset(a, r) })
}
func (f *faultShard) Export(a merge.ExportArgs, r *merge.ExportReply) error {
	return f.call(func() error { return f.inner.Export(a, r) })
}
func (f *faultShard) Import(a merge.ImportArgs, r *merge.ImportReply) error {
	return f.call(func() error { return f.inner.Import(a, r) })
}
func (f *faultShard) Stats(a merge.StatsArgs, r *merge.StatsReply) error {
	return f.call(func() error { return f.inner.Stats(a, r) })
}
func (f *faultShard) Seal(a merge.SealArgs, r *merge.SealReply) error {
	return f.call(func() error { return f.inner.Seal(a, r) })
}
func (f *faultShard) DropSession(a merge.DropArgs, r *merge.DropReply) error {
	return f.call(func() error { return f.inner.DropSession(a, r) })
}
func (f *faultShard) SessionList(a merge.SessionsArgs, r *merge.SessionsReply) error {
	return f.call(func() error { return f.inner.SessionList(a, r) })
}
func (f *faultShard) Mirror(a merge.MirrorArgs, r *merge.MirrorReply) error {
	return f.call(func() error { return f.inner.Mirror(a, r) })
}
func (f *faultShard) Promote(a merge.PromoteArgs, r *merge.PromoteReply) error {
	return f.call(func() error { return f.inner.Promote(a, r) })
}
func (f *faultShard) Fence(a merge.FenceArgs, r *merge.FenceReply) error {
	return f.call(func() error { return f.inner.Fence(a, r) })
}

// RecoveryAblationRow is the kill-a-shard outcome.
type RecoveryAblationRow struct {
	Shards   int
	Sessions int
	// Killed names the murdered shard; KilledSessions how many sessions
	// it owned.
	Killed         string
	KilledSessions int
	// ProbeRounds is how many health rounds detection took (the
	// configured threshold, by construction).
	ProbeRounds int
	// Recovered counts sessions whose post-recovery state matches the
	// flat reference exactly; Lost reports any that do not.
	Recovered int
	Lost      bool
	WallMS    int64
}

// RecoveryAblation publishes `rounds` rounds across `sessions`
// sessions, kills the shard owning the most, lets the Health prober
// mark it dead, and verifies every session's state after the engines
// re-baseline onto the surviving shards.
func RecoveryAblation(shards, sessions, rounds int) (RecoveryAblationRow, error) {
	router := shard.NewRouter(0)
	faults := map[string]*faultShard{}
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard%02d", i)
		fs := &faultShard{inner: merge.NewManager()}
		faults[name] = fs
		if err := router.AddShard(name, fs); err != nil {
			return RecoveryAblationRow{}, err
		}
	}
	flat := merge.NewManager()
	var workers []*ablationWorker
	for s := 0; s < sessions; s++ {
		w, err := newAblationWorker(fmt.Sprintf("sess-%02d", s), router, flat)
		if err != nil {
			return RecoveryAblationRow{}, err
		}
		workers = append(workers, w)
	}
	start := time.Now()
	publishAll := func(x float64, tolerateFabricErr bool) error {
		for _, w := range workers {
			w.h.Fill(x)
			w.refH.Fill(x)
			if err := sendSnapshot(w.tr, w.tree); err != nil && !tolerateFabricErr {
				return err
			}
			if err := sendSnapshot(w.refTr, w.ref); err != nil {
				return err
			}
		}
		return nil
	}
	for r := 0; r < rounds; r++ {
		if err := publishAll(float64(r), false); err != nil {
			return RecoveryAblationRow{}, err
		}
	}
	// Kill the shard owning the most sessions.
	owned := map[string]int{}
	for _, w := range workers {
		owned[router.Placement(w.sid)]++
	}
	victim, max := "", -1
	for name, n := range owned {
		if n > max {
			victim, max = name, n
		}
	}
	faults[victim].dead.Store(true)
	row := RecoveryAblationRow{
		Shards: shards, Sessions: sessions, Killed: victim, KilledSessions: max,
	}
	h := shard.NewHealth(router)
	h.Threshold = 2
	for len(router.DeadShards()) == 0 {
		h.RunOnce()
		row.ProbeRounds++
		if row.ProbeRounds > 10 {
			return row, fmt.Errorf("perf: health prober never detected the killed shard")
		}
	}
	// Recovery: the first post-kill publish of an orphaned session draws
	// NeedFull from its new home; the next carries the full re-baseline.
	for r := 0; r < rounds; r++ {
		if err := publishAll(float64(10+r), true); err != nil {
			return row, err
		}
	}
	for _, w := range workers {
		same, err := statesMatch(router, flat, w.sid)
		if err != nil {
			return row, err
		}
		if same {
			row.Recovered++
		} else {
			row.Lost = true
		}
	}
	row.WallMS = time.Since(start).Milliseconds()
	return row, nil
}
