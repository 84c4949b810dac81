// Package session implements the Interactive Parallel Dataset Analysis
// Session Manager Service — "at the heart of the system design" (§3.2).
//
// A session is the unit of interactivity: creating one starts a set of
// analysis engines on the Grid through GRAM, attaching a dataset runs the
// locate → fetch → split → stage pipeline of §3.4, loading code ships the
// user's analysis to every engine (§3.5), and the run controls of §3.6
// fan out to all engines. Every client call happens "in the context of
// this session", authenticated by an unguessable token.
package session

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"strings"
	"sync"
	"time"

	"github.com/ipa-grid/ipa/internal/catalog"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/engine"
	"github.com/ipa-grid/ipa/internal/gram"
	"github.com/ipa-grid/ipa/internal/gridftp"
	"github.com/ipa-grid/ipa/internal/locator"
	"github.com/ipa-grid/ipa/internal/merge"
	"github.com/ipa-grid/ipa/internal/registry"
	"github.com/ipa-grid/ipa/internal/splitter"
	"github.com/ipa-grid/ipa/internal/storage"
	"github.com/ipa-grid/ipa/internal/wsrf"
)

// EngineRef is the session service's handle on one analysis engine;
// *engine.Engine satisfies it directly (the in-process fast path).
type EngineRef interface {
	SetPart(path string, globalOffset int64) error
	LoadCode(b *codeloader.Bundle) error
	Run() error
	Step(n int64) error
	Pause() error
	Rewind() error
	State() (engine.State, error)
	Progress() (done, total int64)
}

// Config wires the session service into the manager node.
type Config struct {
	Gram     *gram.JobManager
	Registry *registry.Registry
	Locator  *locator.Service
	Catalog  *catalog.Catalog
	// Merge is the result fabric sessions publish into and clients poll
	// from: a single merge.Manager, or a shard.Router fronting several
	// manager shards — the service cannot tell the difference.
	Merge  merge.Service
	Loader *codeloader.Loader
	// SharedDisk is the compute element's shared disk (Figure 2), where
	// whole datasets land and are split.
	SharedDisk *storage.Element
	// WorkerScratch resolves a node name to its scratch storage.
	WorkerScratch func(node string) (*storage.Element, error)
	// Engines is the pre-configured engine count per session — "the
	// number of nodes is determined by the Grid site policy" (§3.2).
	Engines int
	// Queue is the scheduler queue engines are submitted to (the
	// dedicated interactive queue).
	Queue string
	// Site names this Grid site for replica selection.
	Site string
	// ActivateTimeout bounds the wait for engine ready signals.
	ActivateTimeout time.Duration
	// SessionLifetime is the WS-Resource termination window, renewed on
	// activity (0 = 30 minutes).
	SessionLifetime time.Duration
}

// State is a session's lifecycle position.
type State string

// Session states.
const (
	StateNew       State = "New"    // created, engines starting
	StateActive    State = "Active" // engines ready
	StateStaged    State = "Staged" // dataset attached and distributed
	StateAnalyzing State = "Analyzing"
	StateClosed    State = "Closed"
)

// Session is one interactive analysis context.
type Session struct {
	ID      string
	Token   string
	OwnerDN string
	// resKey is the session's WS-Resource key in the service's resource
	// home: lifetime renewal and teardown go through it.
	resKey string

	mu      sync.Mutex
	state   State
	engines []EngineRef
	nodes   []string
	job     *gram.Job
	ds      *catalog.DatasetRef
	plan    splitter.Plan
	bundle  *codeloader.Bundle
}

// Service manages sessions.
type Service struct {
	cfg Config

	mu       sync.Mutex
	sessions map[string]*Session // by ID
	byToken  map[string]*Session
	home     *wsrf.ResourceHome
}

// New creates the session service.
func New(cfg Config) (*Service, error) {
	switch {
	case cfg.Gram == nil, cfg.Registry == nil, cfg.Locator == nil,
		cfg.Catalog == nil, cfg.Merge == nil, cfg.Loader == nil, cfg.SharedDisk == nil:
		return nil, errors.New("session: incomplete configuration")
	}
	if cfg.Engines <= 0 {
		cfg.Engines = 4
	}
	if cfg.ActivateTimeout == 0 {
		cfg.ActivateTimeout = 30 * time.Second
	}
	if cfg.SessionLifetime == 0 {
		cfg.SessionLifetime = 30 * time.Minute
	}
	s := &Service{cfg: cfg, sessions: make(map[string]*Session), byToken: make(map[string]*Session)}
	s.home = wsrf.NewResourceHome(func(r *wsrf.Resource) {
		if sess, ok := r.Value.(*Session); ok {
			s.teardown(sess)
		}
	})
	return s, nil
}

// EngineExecutable is the GRAM executable name session jobs request.
const EngineExecutable = "ipa-engine"

// Create starts a session for ownerDN: submit the engine jobs, wait for
// ready signals, and hand back the session with its token — steps 2–3 of
// Figure 2. On engine-start failure everything is rolled back.
func (s *Service) Create(ownerDN string) (*Session, error) {
	id := wsrf.NewKey()
	token := wsrf.NewKey()
	sess := &Session{ID: id, Token: token, OwnerDN: ownerDN, state: StateNew}

	job, err := s.cfg.Gram.Submit(gram.JobDescription{
		Executable: EngineExecutable,
		Count:      s.cfg.Engines,
		Queue:      s.cfg.Queue,
		User:       ownerDN,
		Environment: map[string]string{
			"IPA_SESSION": id,
			"IPA_TOKEN":   token,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("session: starting engines: %w", err)
	}
	sess.job = job
	workers, err := s.cfg.Registry.WaitReady(id, s.cfg.Engines, s.cfg.ActivateTimeout)
	if err != nil {
		s.cfg.Gram.Release(job.ID)
		s.cfg.Registry.RemoveSession(id)
		return nil, fmt.Errorf("session: engines not ready: %w", err)
	}
	for _, w := range workers {
		ref, ok := w.Handle.(EngineRef)
		if !ok {
			s.cfg.Gram.Release(job.ID)
			s.cfg.Registry.RemoveSession(id)
			return nil, fmt.Errorf("session: worker %s registered no usable handle", w.WorkerID)
		}
		sess.engines = append(sess.engines, ref)
		sess.nodes = append(sess.nodes, w.Node)
	}
	sess.state = StateActive

	sess.resKey = s.home.Create(sess, s.cfg.SessionLifetime).Key
	s.mu.Lock()
	s.sessions[id] = sess
	s.byToken[token] = sess
	s.mu.Unlock()
	return sess, nil
}

// Get resolves a session by ID.
func (s *Service) Get(id string) (*Session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[id]
	if sess == nil {
		return nil, fmt.Errorf("session: no session %q", id)
	}
	return sess, nil
}

// ValidateToken authorizes an RMI/GridFTP token: it must belong to a live
// session — the paper's rule that no RMI object works without a Web
// Service session (§3.7).
func (s *Service) ValidateToken(token string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.byToken[token]; !ok {
		return errors.New("session: unknown or expired session token")
	}
	return nil
}

// TokenChecker adapts ValidateToken for the gridftp server.
func (s *Service) TokenChecker() gridftp.TokenChecker {
	return func(token string) error { return s.ValidateToken(token) }
}

// StagingReport carries the phase timings of one AttachDataset — the
// quantities Table 2 reports (move whole / split / move parts).
type StagingReport struct {
	DatasetID  string
	SizeMB     float64
	Parts      int
	MoveWhole  time.Duration
	Split      time.Duration
	MoveParts  time.Duration
	Imbalance  float64
	ReplicaURL string
}

// AttachDataset runs the §3.4 staging pipeline: resolve the dataset ID via
// the catalog and locator, move the whole dataset to the shared disk,
// split it into one part per engine, move parts to the workers' scratch
// disks, and point every engine at its part.
func (s *Service) AttachDataset(sessionID, datasetID string) (*StagingReport, error) {
	sess, err := s.Get(sessionID)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state == StateClosed {
		return nil, errors.New("session: closed")
	}
	info, err := s.cfg.Catalog.FindByID(datasetID)
	if err != nil {
		return nil, err
	}
	res, err := s.cfg.Locator.Resolve(datasetID, s.cfg.Site)
	if err != nil {
		return nil, err
	}
	report := &StagingReport{DatasetID: datasetID, SizeMB: info.Dataset.SizeMB, Parts: len(sess.engines)}

	// Phase 1: move the whole dataset to the shared disk.
	whole := path.Join("/sessions", sess.ID, "dataset.ipa")
	t0 := time.Now()
	var fetched bool
	var lastErr error
	for _, rep := range res.Replicas {
		if err := s.fetchReplica(rep, whole); err != nil {
			lastErr = err
			continue
		}
		report.ReplicaURL = rep.URL
		fetched = true
		break
	}
	if !fetched {
		return nil, fmt.Errorf("session: no replica reachable for %s: %w", datasetID, lastErr)
	}
	report.MoveWhole = time.Since(t0)

	// Phase 2: split into N approximately equal parts on the shared disk.
	t0 = time.Now()
	localWhole, err := s.cfg.SharedDisk.LocalPath(whole)
	if err != nil {
		return nil, err
	}
	partPath := func(i int) string {
		return path.Join("/sessions", sess.ID, fmt.Sprintf("part-%d.ipa", i))
	}
	plan, err := splitter.SplitFile(localWhole, len(sess.engines), func(i int) string {
		p, _ := s.cfg.SharedDisk.LocalPath(partPath(i))
		return p
	})
	if err != nil {
		return nil, fmt.Errorf("session: splitting: %w", err)
	}
	sess.plan = plan
	report.Split = time.Since(t0)
	report.Imbalance = plan.Imbalance()

	// Phase 3: move parts to worker scratch space, in parallel (§3.4:
	// "the transfers are done in parallel").
	t0 = time.Now()
	errs := make(chan error, len(sess.engines))
	staged := make([]string, len(sess.engines))
	for i := range sess.engines {
		i := i
		go func() {
			scratch, err := s.cfg.WorkerScratch(sess.nodes[i])
			if err != nil {
				errs <- err
				return
			}
			src, err := s.cfg.SharedDisk.LocalPath(partPath(i))
			if err != nil {
				errs <- err
				return
			}
			dst := path.Join("/scratch", sess.ID, fmt.Sprintf("part-%d.ipa", i))
			f, err := os.Open(src)
			if err != nil {
				errs <- err
				return
			}
			defer f.Close()
			if _, err := scratch.Put(dst, f); err != nil {
				errs <- err
				return
			}
			staged[i], err = scratch.LocalPath(dst)
			errs <- err
		}()
	}
	for range sess.engines {
		if err := <-errs; err != nil {
			return nil, fmt.Errorf("session: staging parts: %w", err)
		}
	}
	report.MoveParts = time.Since(t0)

	// Point engines at their parts.
	for i, eng := range sess.engines {
		if err := eng.SetPart(staged[i], plan.Parts[i].FromRecord); err != nil {
			return nil, fmt.Errorf("session: engine %d: %w", i, err)
		}
	}
	ref := *info.Dataset
	sess.ds = &ref
	sess.state = StateStaged
	s.touch(sess)
	return report, nil
}

// fetchReplica moves a replica to the shared disk. Supported schemes:
// file:// (shared filesystem) and gsiftp://host:port/path (GridFTP).
func (s *Service) fetchReplica(rep locator.Replica, dstPath string) error {
	switch {
	case strings.HasPrefix(rep.URL, "file://"):
		src := strings.TrimPrefix(rep.URL, "file://")
		f, err := os.Open(src)
		if err != nil {
			return err
		}
		defer f.Close()
		_, err = s.cfg.SharedDisk.Put(dstPath, f)
		return err
	case strings.HasPrefix(rep.URL, "gsiftp://"):
		rest := strings.TrimPrefix(rep.URL, "gsiftp://")
		slash := strings.Index(rest, "/")
		if slash < 0 {
			return fmt.Errorf("session: malformed gridftp URL %q", rep.URL)
		}
		addr, remote := rest[:slash], rest[slash:]
		c, err := gridftp.Dial(addr, "")
		if err != nil {
			return err
		}
		defer c.Close()
		local, err := s.cfg.SharedDisk.LocalPath(dstPath)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(path.Dir(local), 0o755); err != nil {
			return err
		}
		_, err = c.RetrieveFile(remote, local)
		return err
	default:
		return fmt.Errorf("session: unsupported replica scheme in %q", rep.URL)
	}
}

// LoadCode stores the bundle and ships it to every engine (§3.5). The
// engines pick it up immediately when idle, or at the next rewind.
func (s *Service) LoadCode(sessionID string, b codeloader.Bundle) (*codeloader.Bundle, error) {
	sess, err := s.Get(sessionID)
	if err != nil {
		return nil, err
	}
	stored, err := s.cfg.Loader.Store(b)
	if err != nil {
		return nil, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for i, eng := range sess.engines {
		if err := eng.LoadCode(stored); err != nil {
			return nil, fmt.Errorf("session: engine %d rejected code: %w", i, err)
		}
	}
	sess.bundle = stored
	s.touch(sess)
	return stored, nil
}

// Action is an interactive control verb.
type Action string

// The Figure 4 controls.
const (
	ActionRun    Action = "run"
	ActionPause  Action = "pause"
	ActionStop   Action = "stop"
	ActionRewind Action = "rewind"
	ActionStep   Action = "step"
)

// Control fans a verb out to every engine. Step takes n events per engine.
func (s *Service) Control(sessionID string, action Action, n int64) error {
	sess, err := s.Get(sessionID)
	if err != nil {
		return err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.state == StateClosed {
		return errors.New("session: closed")
	}
	apply := func(f func(EngineRef) error) error {
		for i, eng := range sess.engines {
			if err := f(eng); err != nil {
				return fmt.Errorf("session: engine %d: %w", i, err)
			}
		}
		return nil
	}
	var actErr error
	switch action {
	case ActionRun:
		actErr = apply(EngineRef.Run)
		if actErr == nil {
			sess.state = StateAnalyzing
		}
	case ActionPause:
		actErr = apply(EngineRef.Pause)
	case ActionStep:
		actErr = apply(func(e EngineRef) error { return e.Step(n) })
	case ActionStop, ActionRewind:
		actErr = apply(EngineRef.Rewind)
		if actErr == nil {
			// Clear merged results so the client sees a fresh start.
			var rr merge.ResetReply
			actErr = s.cfg.Merge.Reset(merge.ResetArgs{SessionID: sess.ID}, &rr)
			if sess.ds != nil {
				sess.state = StateStaged
			} else {
				sess.state = StateActive
			}
		}
	default:
		return fmt.Errorf("session: unknown action %q", action)
	}
	s.touch(sess)
	return actErr
}

// EngineStatus is one engine's view in a status report.
type EngineStatus struct {
	Node  string
	State engine.State
	Err   string
	Done  int64
	Total int64
}

// Status summarizes the session.
type Status struct {
	ID      string
	State   State
	Dataset string
	Bundle  string
	Engines []EngineStatus
	// ResultVersion is the AIDA manager's current merged-result
	// version for this session (what clients poll against).
	ResultVersion int64
	// PollCacheHits / PollCacheMisses report the manager's encoded-
	// frame poll cache: hits are objects served to polling clients
	// without re-encoding.
	PollCacheHits   int64
	PollCacheMisses int64
	// Shard names the merge-fabric shard owning this session's results
	// ("" when results are served by a single unsharded manager).
	Shard string
	// ShardAddr is the RMI endpoint serving that shard directly ("" when
	// unsharded or unadvertised). Heavy pollers dial it and skip the
	// router hop.
	ShardAddr string
	// RelayName names the read relay assigned to this session's polls
	// ("" when the fabric has no relay tier or relay reads are off).
	RelayName string
	// RelayAddr is the RMI endpoint serving that relay ("" when
	// unadvertised). Read-heavy clients dial it and leave the owning
	// shard to writers.
	RelayAddr string
	// PlacementGen is the fabric's placement-table generation (0 when
	// unsharded): it bumps on every topology edit, rebalance move, or
	// fault eviction, so a client can tell "the fabric changed under me"
	// from "nothing moved" without diffing placements.
	PlacementGen uint64
	// DeadShards lists fabric shards the health prober currently marks
	// unreachable (nil when unsharded or all healthy).
	DeadShards []string
	// ResultEpoch is the session's merge-state incarnation stamp (0 when
	// the fabric does not expose one). It changes when the state is
	// rebuilt — a failover promotion or a post-fault re-baseline — so a
	// client can tell "same state, newer version" from "new incarnation,
	// discard the mirror".
	ResultEpoch int64
	// Replica names the shard holding this session's first standby copy
	// ("" when replication is off or no replica is assigned).
	Replica string
	// ReplicaChain lists every shard in the session's replica chain in
	// order, primary excluded (nil when unreplicated or depth 1 fabrics
	// that predate chains report only Replica).
	ReplicaChain []string
	// Publishes / Polls are the session's cumulative merge-traffic
	// counters; FastPolls is the subset of polls answered on the
	// lock-free quiescent path (fast-path poll ratio = FastPolls/Polls).
	Publishes, Polls, FastPolls int64
	// ReplicaLag is how many merged-result versions the standby copy
	// trails the owner (0 when unreplicated, unreachable, or caught up).
	ReplicaLag int64
}

// Status reports the session and per-engine state — the client's "hosts
// that has Analysis Engines running" panel.
func (s *Service) Status(sessionID string) (Status, error) {
	sess, err := s.Get(sessionID)
	if err != nil {
		return Status{}, err
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	s.touch(sess)
	st := Status{ID: sess.ID, State: sess.state}
	if sess.ds != nil {
		st.Dataset = sess.ds.ID
	}
	if sess.bundle != nil {
		st.Bundle = fmt.Sprintf("%s v%d", sess.bundle.Name, sess.bundle.Version)
	}
	allDone := len(sess.engines) > 0
	for i, eng := range sess.engines {
		es, err := eng.State()
		done, total := eng.Progress()
		e := EngineStatus{Node: sess.nodes[i], State: es, Done: done, Total: total}
		if err != nil {
			e.Err = err.Error()
		}
		if es != engine.StateFinished {
			allDone = false
		}
		st.Engines = append(st.Engines, e)
	}
	if sess.state == StateAnalyzing && allDone {
		sess.state = StateStaged
		st.State = StateStaged
	}
	st.ResultVersion = s.cfg.Merge.Version(sess.ID)
	st.PollCacheHits, st.PollCacheMisses = s.cfg.Merge.CacheStats(sess.ID)
	switch p := s.cfg.Merge.(type) {
	case interface {
		PlacementInfo(string) (string, string)
		Generation() uint64
		DeadShards() []string
	}:
		st.Shard, st.ShardAddr = p.PlacementInfo(sess.ID)
		st.PlacementGen = p.Generation()
		st.DeadShards = p.DeadShards()
	case interface {
		PlacementInfo(string) (string, string)
	}:
		st.Shard, st.ShardAddr = p.PlacementInfo(sess.ID)
	case interface{ Placement(string) string }:
		st.Shard = p.Placement(sess.ID)
	}
	if p, ok := s.cfg.Merge.(interface {
		RelayFor(string) (string, string)
	}); ok {
		st.RelayName, st.RelayAddr = p.RelayFor(sess.ID)
	}
	// Replication surfaces are capability probes too: any fabric that
	// stamps incarnations or assigns standbys reports them.
	if p, ok := s.cfg.Merge.(interface{ Epoch(string) int64 }); ok {
		st.ResultEpoch = p.Epoch(sess.ID)
	}
	if p, ok := s.cfg.Merge.(interface{ ReplicaOf(string) string }); ok {
		st.Replica = p.ReplicaOf(sess.ID)
	}
	if p, ok := s.cfg.Merge.(interface{ ReplicasOf(string) []string }); ok {
		st.ReplicaChain = p.ReplicasOf(sess.ID)
	}
	// Traffic counters ride the same lock-free Stats surface the health
	// prober and balancer use; any fabric exposing it reports them.
	if p, ok := s.cfg.Merge.(interface {
		Stats(merge.StatsArgs, *merge.StatsReply) error
	}); ok {
		var sr merge.StatsReply
		if err := p.Stats(merge.StatsArgs{SessionID: sess.ID}, &sr); err == nil && sr.Found {
			st.Publishes, st.Polls, st.FastPolls = sr.Publishes, sr.Polls, sr.FastPolls
		}
	}
	if p, ok := s.cfg.Merge.(interface{ ReplicaLag(string) int64 }); ok {
		st.ReplicaLag = p.ReplicaLag(sess.ID)
	}
	return st, nil
}

// Close tears the session down: engines, GRAM job, staged files, merge
// state, registry entries.
func (s *Service) Close(sessionID string) error {
	sess, err := s.Get(sessionID)
	if err != nil {
		return err
	}
	s.teardown(sess)
	return nil
}

func (s *Service) teardown(sess *Session) {
	sess.mu.Lock()
	if sess.state == StateClosed {
		sess.mu.Unlock()
		return
	}
	sess.state = StateClosed
	job := sess.job
	sess.mu.Unlock()
	if job != nil {
		s.cfg.Gram.Release(job.ID)
	}
	s.cfg.Registry.RemoveSession(sess.ID)
	s.cfg.Merge.Drop(sess.ID)
	s.cfg.SharedDisk.DeleteTree(path.Join("/sessions", sess.ID))
	// The staged parts on every worker's scratch element go too; they
	// would otherwise outlive the session (a full copy of the dataset).
	if s.cfg.WorkerScratch != nil {
		for _, node := range sess.nodes {
			if scratch, err := s.cfg.WorkerScratch(node); err == nil {
				scratch.DeleteTree(path.Join("/scratch", sess.ID))
			}
		}
	}
	s.mu.Lock()
	delete(s.sessions, sess.ID)
	delete(s.byToken, sess.Token)
	s.mu.Unlock()
	// Release the resource; when the sweeper expired it, it is already
	// gone and this is a no-op.
	s.home.Destroy(sess.resKey)
}

// touch renews the session's WSRF lifetime on activity: the sweeper
// destroys a session only after SessionLifetime without any.
func (s *Service) touch(sess *Session) {
	s.home.SetTermination(sess.resKey, time.Now().Add(s.cfg.SessionLifetime))
}

// Resources returns the number of live session resources in the
// service's resource home.
func (s *Service) Resources() int { return s.home.Len() }

// Sweep destroys expired sessions; call periodically.
func (s *Service) Sweep() int { return s.home.Sweep(time.Now()) }

// Sessions returns live session IDs.
func (s *Service) Sessions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		out = append(out, id)
	}
	return out
}

var _ EngineRef = (*engine.Engine)(nil)

// unused import guards (dataset used for typed doc references).
var _ = dataset.DefaultIndexEvery
var _ io.Reader = (*os.File)(nil)
