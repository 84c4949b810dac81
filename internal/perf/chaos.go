// A15 — chaos schedule over the K-replica fabric: a seeded kill
// schedule murders up to K shards in randomized order — the second
// victim armed to die mid-failover, partway through the first victim's
// promotion call stream — with a flaky replication plane (seeded
// transient Mirror/Export/Import failures) underneath, and asserts
// every session's merged state survives byte-identical to the flat
// single-manager reference. The run then injects a silent-drift replica
// (a foreign-epoch copy at a plausible version, the residue a zombie
// incarnation would leave) and requires the anti-entropy loop to detect
// and re-baseline it within two probe rounds. Chain-depth overhead rows
// at K=0..K frame the cost of the protection.

package perf

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/shard"
)

// chaosRand is the splitmix64 stream driving the schedule: same seed,
// same victims, same fuses.
type chaosRand struct{ state uint64 }

func (r *chaosRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	x := r.state
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (r *chaosRand) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// chaosShard wraps a Manager with the chaos failure model: an outright
// kill (dead), an armed fuse that kills the shard a precise number of
// calls later — how a victim dies mid-failover instead of at a tidy
// boundary — and a seeded stream of transient faults on the
// replication-plane calls (Mirror/Export/Import), which the chain's
// self-healing must absorb. Publish/Poll/Stats stay clean so the
// drivers and the health prober see only real deaths.
type chaosShard struct {
	inner *merge.Manager
	dead  atomic.Bool
	armed atomic.Bool
	fuse  atomic.Int64 // calls remaining before an armed shard dies

	flaky     atomic.Bool
	flakySeed uint64
	flakyN    atomic.Uint64
}

var errChaosTransient = fmt.Errorf("perf: injected transient replication fault")

// arm schedules death `calls` dispatched calls from now.
func (c *chaosShard) arm(calls int64) {
	c.fuse.Store(calls)
	c.armed.Store(true)
}

func (c *chaosShard) call(do func() error) error {
	if c.armed.Load() && c.fuse.Add(-1) < 0 {
		c.dead.Store(true)
	}
	if c.dead.Load() {
		return errShardDown
	}
	return do()
}

// replCall is call() plus the transient-fault stream: ~1 in 16 calls
// fail while flaky is on.
func (c *chaosShard) replCall(do func() error) error {
	return c.call(func() error {
		if c.flaky.Load() {
			x := c.flakySeed + 0x9e3779b97f4a7c15*c.flakyN.Add(1)
			x ^= x >> 30
			x *= 0xbf58476d1ce4e5b9
			x ^= x >> 27
			if x%16 == 0 {
				return errChaosTransient
			}
		}
		return do()
	})
}

func (c *chaosShard) Publish(a merge.PublishArgs, r *merge.PublishReply) error {
	return c.call(func() error { return c.inner.Publish(a, r) })
}
func (c *chaosShard) Poll(a merge.PollArgs, r *merge.PollReply) error {
	return c.call(func() error { return c.inner.Poll(a, r) })
}
func (c *chaosShard) Reset(a merge.ResetArgs, r *merge.ResetReply) error {
	return c.call(func() error { return c.inner.Reset(a, r) })
}
func (c *chaosShard) Export(a merge.ExportArgs, r *merge.ExportReply) error {
	return c.replCall(func() error { return c.inner.Export(a, r) })
}
func (c *chaosShard) Import(a merge.ImportArgs, r *merge.ImportReply) error {
	return c.replCall(func() error { return c.inner.Import(a, r) })
}
func (c *chaosShard) Stats(a merge.StatsArgs, r *merge.StatsReply) error {
	return c.call(func() error { return c.inner.Stats(a, r) })
}
func (c *chaosShard) Seal(a merge.SealArgs, r *merge.SealReply) error {
	return c.call(func() error { return c.inner.Seal(a, r) })
}
func (c *chaosShard) DropSession(a merge.DropArgs, r *merge.DropReply) error {
	return c.call(func() error { return c.inner.DropSession(a, r) })
}
func (c *chaosShard) SessionList(a merge.SessionsArgs, r *merge.SessionsReply) error {
	return c.call(func() error { return c.inner.SessionList(a, r) })
}
func (c *chaosShard) Mirror(a merge.MirrorArgs, r *merge.MirrorReply) error {
	return c.replCall(func() error { return c.inner.Mirror(a, r) })
}
func (c *chaosShard) Promote(a merge.PromoteArgs, r *merge.PromoteReply) error {
	return c.call(func() error { return c.inner.Promote(a, r) })
}
func (c *chaosShard) Fence(a merge.FenceArgs, r *merge.FenceReply) error {
	return c.call(func() error { return c.inner.Fence(a, r) })
}

// ChaosOverheadRow is the steady-state publish cost of one chain depth.
type ChaosOverheadRow struct {
	Depth         int
	Publishes     int64
	PublishPerSec float64
}

// ChaosVictim is one scheduled shard death.
type ChaosVictim struct {
	Shard         string
	OwnedSessions int
	// MidFailover marks a victim armed to die during the previous
	// victim's failover call stream rather than killed outright.
	MidFailover bool
	// Fuse is the armed victim's remaining call budget at arm time.
	Fuse int64
}

// ChaosResult is the full A15 outcome.
type ChaosResult struct {
	Shards   int
	Sessions int
	Rounds   int
	// Depth is the chain length K of the chaos run; Kills how many
	// shards the schedule murders (≤ K, so survival is required).
	Depth int
	Kills int
	Seed  uint64
	// Overhead frames the publish cost of K=0..Depth chains.
	Overhead []ChaosOverheadRow
	Victims  []ChaosVictim
	// ProbeRounds is the health rounds until every victim was detected
	// (and its failover completed); FailoverMS spans first kill → last
	// victim's sessions re-homed.
	ProbeRounds int
	FailoverMS  float64
	Promoted    int
	Mirrored    int64
	// Recovered counts sessions byte-identical to the flat reference
	// after the full schedule; Lost must stay 0.
	Recovered int
	Lost      int
	// DriftHop is the "session/shard" copy doctored with a foreign
	// epoch; DriftRounds how many anti-entropy sweeps its repair took
	// (the acceptance bar is ≤ 2); DriftRepaired that the copy ended
	// converged with its owner.
	DriftHop      string
	DriftRounds   int
	DriftRepaired bool
	WallMS        int64
}

// chaosOverhead measures the steady publish path at one chain depth
// (no faults, plain managers).
func chaosOverhead(shards, sessions, rounds, depth int) (ChaosOverheadRow, error) {
	row := ChaosOverheadRow{Depth: depth}
	router := shard.NewRouter(0)
	router.Replicate = depth > 0
	router.ReplicaDepth = depth
	for i := 0; i < shards; i++ {
		if err := router.AddShard(fmt.Sprintf("shard%02d", i), merge.NewManager()); err != nil {
			return row, err
		}
	}
	flat := merge.NewManager()
	var workers []*ablationWorker
	for s := 0; s < sessions; s++ {
		w, err := newAblationWorker(fmt.Sprintf("chaos-%02d", s), router, flat)
		if err != nil {
			return row, err
		}
		workers = append(workers, w)
	}
	// Untimed warm-up: the first send per worker is a full baseline (and
	// pays chain assignment at depth > 0) — keep that out of the steady-
	// state figure so depths compare like for like.
	for r := 0; r < 2; r++ {
		for _, w := range workers {
			w.h.Fill(float64(r % 10))
			w.refH.Fill(float64(r % 10))
			if err := sendSnapshot(w.tr, w.tree); err != nil {
				return row, err
			}
			if err := sendSnapshot(w.refTr, w.ref); err != nil {
				return row, err
			}
		}
	}
	var fabricNS int64
	for r := 0; r < rounds; r++ {
		for _, w := range workers {
			w.h.Fill(float64(r % 10))
			w.refH.Fill(float64(r % 10))
			t0 := time.Now()
			if err := sendSnapshot(w.tr, w.tree); err != nil {
				return row, err
			}
			fabricNS += time.Since(t0).Nanoseconds()
			row.Publishes++
			if err := sendSnapshot(w.refTr, w.ref); err != nil {
				return row, err
			}
		}
	}
	if fabricNS > 0 {
		row.PublishPerSec = float64(row.Publishes) / (float64(fabricNS) / 1e9)
	}
	return row, nil
}

// ChaosAblation runs the A15 schedule: overhead rows for chain depths
// 0..depth, then the seeded multi-kill run at depth K with per-shard
// WALs wired into the failover tail-replay hook, and finally the
// silent-drift injection against the anti-entropy loop.
func ChaosAblation(shards, sessions, rounds, kills, depth int, seed uint64) (*ChaosResult, error) {
	if kills >= shards {
		return nil, fmt.Errorf("perf: chaos schedule kills %d of %d shards — nothing would survive", kills, shards)
	}
	if kills > depth {
		return nil, fmt.Errorf("perf: chaos schedule kills %d shards but the chain depth is %d — survival is not promised", kills, depth)
	}
	res := &ChaosResult{Shards: shards, Sessions: sessions, Rounds: rounds, Depth: depth, Kills: kills, Seed: seed}
	start := time.Now()
	for k := 0; k <= depth; k++ {
		row, err := chaosOverhead(shards, sessions, rounds, k)
		if err != nil {
			return nil, err
		}
		res.Overhead = append(res.Overhead, row)
	}

	// The chaos fabric: chaosShard wrappers, per-shard fsync'd WALs, and
	// the WAL-tail handoff hook — a dead primary's fsync'd records the
	// asynchronous mirror stream never delivered are replayed into the
	// promoted copy.
	dir, err := os.MkdirTemp("", "ipa-chaos-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	router := shard.NewRouter(0)
	router.Replicate = true
	router.ReplicaDepth = depth
	rng := chaosRand{state: seed}
	shardNames := make([]string, 0, shards)
	cshards := map[string]*chaosShard{}
	inners := map[string]*merge.Manager{}
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("shard%02d", i)
		m := merge.NewManager()
		w, err := merge.OpenWAL(filepath.Join(dir, name+".wal"), merge.WALOptions{SyncEvery: 1})
		if err != nil {
			return nil, err
		}
		defer w.Close()
		m.SetWAL(w)
		cs := &chaosShard{inner: m, flakySeed: rng.next()}
		cs.flaky.Store(true)
		if err := router.AddShard(name, cs); err != nil {
			return nil, err
		}
		shardNames = append(shardNames, name)
		cshards[name] = cs
		inners[name] = m
	}
	router.WALTail = func(deadShard, sessionID, targetShard string) (int, error) {
		target, ok := inners[targetShard]
		if !ok {
			return 0, fmt.Errorf("perf: no manager for shard %q", targetShard)
		}
		return merge.ReplaySessionInto(filepath.Join(dir, deadShard+".wal"), sessionID, target)
	}

	flat := merge.NewManager()
	var workers []*ablationWorker
	for s := 0; s < sessions; s++ {
		w, err := newAblationWorker(fmt.Sprintf("chaos-%02d", s), router, flat)
		if err != nil {
			return nil, err
		}
		workers = append(workers, w)
	}
	for r := 0; r < rounds; r++ {
		for _, w := range workers {
			w.h.Fill(float64(r % 10))
			w.refH.Fill(float64(r % 10))
			if err := sendSnapshot(w.tr, w.tree); err != nil {
				return nil, err
			}
			if err := sendSnapshot(w.refTr, w.ref); err != nil {
				return nil, err
			}
		}
	}

	// The seeded schedule. Victim 1 (killed outright) is drawn from the
	// shards owning sessions; later victims from the remaining shards —
	// each armed with a small call fuse so it dies partway through the
	// preceding failover's call stream (probes, drains, re-baselines,
	// promotions all burn the fuse).
	owned := map[string]int{}
	for _, w := range workers {
		owned[router.Placement(w.sid)]++
	}
	var owners []string
	for _, name := range shardNames {
		if owned[name] > 0 {
			owners = append(owners, name)
		}
	}
	sort.Strings(owners)
	picked := map[string]bool{}
	first := owners[rng.intn(len(owners))]
	picked[first] = true
	res.Victims = append(res.Victims, ChaosVictim{Shard: first, OwnedSessions: owned[first]})
	for len(res.Victims) < kills {
		rest := make([]string, 0, shards)
		for _, name := range shardNames {
			if !picked[name] {
				rest = append(rest, name)
			}
		}
		v := rest[rng.intn(len(rest))]
		picked[v] = true
		fuse := int64(3 + rng.intn(10))
		res.Victims = append(res.Victims, ChaosVictim{Shard: v, OwnedSessions: owned[v], MidFailover: true, Fuse: fuse})
	}
	killAt := time.Now()
	cshards[first].dead.Store(true)
	for _, v := range res.Victims[1:] {
		cshards[v.Shard].arm(v.Fuse)
	}

	h := shard.NewHealth(router)
	h.Threshold = 2
	for len(router.DeadShards()) < kills {
		h.RunOnce()
		res.ProbeRounds++
		if res.ProbeRounds > 40*kills {
			return nil, fmt.Errorf("perf: chaos health prober detected only %d of %d victims", len(router.DeadShards()), kills)
		}
	}
	res.FailoverMS = float64(time.Since(killAt).Nanoseconds()) / 1e6
	res.Promoted = int(router.Promotions())
	res.Mirrored = router.Mirrored()

	// Quiet the transient-fault stream before verification: the chain's
	// self-healing absorbed it during the storm; the checks below must
	// measure what the fabric preserved, not inject fresh noise.
	for _, cs := range cshards {
		cs.flaky.Store(false)
	}
	deadNow := map[string]bool{}
	for _, d := range router.DeadShards() {
		deadNow[d] = true
	}
	for _, w := range workers {
		if deadNow[router.Placement(w.sid)] {
			res.Lost++
			continue
		}
		same, err := statesMatch(router, flat, w.sid)
		if err != nil {
			return nil, err
		}
		if same {
			res.Recovered++
		} else {
			res.Lost++
		}
	}

	// Silent-drift injection: doctor one surviving replica copy with a
	// foreign epoch at a plausible version — the residue a zombie
	// incarnation would leave — and require the anti-entropy loop to
	// detect and re-baseline it within two sweeps.
	var driftSID, driftHop string
	for off := 0; off < len(workers); off++ {
		w := workers[(rng.intn(len(workers))+off)%len(workers)]
		if chain := router.ReplicasOf(w.sid); len(chain) > 0 {
			driftSID, driftHop = w.sid, chain[0]
			break
		}
	}
	if driftSID != "" {
		ownerName := router.Placement(driftSID)
		var exp merge.ExportReply
		if err := inners[ownerName].Export(merge.ExportArgs{SessionID: driftSID}, &exp); err != nil || !exp.Found {
			return nil, fmt.Errorf("perf: chaos drift injection: exporting %s from %s: %v", driftSID, ownerName, err)
		}
		var ir merge.ImportReply
		if err := inners[driftHop].Import(merge.ImportArgs{
			SessionID: driftSID, Version: exp.Version, Epoch: exp.Epoch + 1000,
			Workers: exp.Workers, Removed: exp.Removed, Logs: exp.Logs,
			LastTraceID: exp.LastTraceID,
		}, &ir); err != nil {
			return nil, fmt.Errorf("perf: chaos drift injection: %v", err)
		}
		res.DriftHop = driftSID + "/" + driftHop
		ae := shard.NewAntiEntropy(router)
		for round := 1; round <= 2; round++ {
			res.DriftRounds = round
			for _, repaired := range ae.RunOnce() {
				if repaired == res.DriftHop {
					res.DriftRepaired = true
				}
			}
			if res.DriftRepaired {
				break
			}
		}
		// Repaired means converged: the copy must agree with its owner
		// on (epoch, version) again.
		if res.DriftRepaired {
			for _, hop := range router.ReplicaLagChain(driftSID) {
				if hop.Shard == driftHop && (hop.Stale || hop.Lag > 0) {
					res.DriftRepaired = false
				}
			}
		}
	}
	res.WallMS = time.Since(start).Milliseconds()
	return res, nil
}
