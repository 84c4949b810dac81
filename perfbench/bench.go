package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/core"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/gsi"
)

const (
	user      = "alice"
	datasetID = "ds-bench"
	// pollInterval is the client's fixed poll cadence. The quickstart's
	// 50 ms sleep would quantise time-to-first-result.
	pollInterval = 2 * time.Millisecond
	// runTimeout fails a run that has not completed by then.
	runTimeout = 20 * time.Second
	// A run stands the grid up at least minSetups times and until
	// setupTime has passed (at most maxSetups); setup_s is the median and
	// the last grid is the one measured.
	minSetups, maxSetups = 5, 25
	setupTime            = 2 * time.Second
	// maxStreak ends a phase after this many failed units in a row, so a
	// broken grid fails the run in seconds rather than timeouts.
	maxStreak = 3
)

// bench is one run's grid, dataset and serial references.
type bench struct {
	w      workload
	grid   *core.LocalGrid
	dsPath string
	// refs maps a tune cut ("" for the fixed analysis) to its serial
	// reference result.
	refs    map[string]*reference
	rng     *rand.Rand
	lastCut string
	setup   []time.Duration
}

// newBench stands the grid up repeatedly under root, keeping the last
// one, then computes the serial references outside the setup time.
func newBench(w workload, seed int64, root string) (*bench, error) {
	b := &bench{w: w, refs: map[string]*reference{}, rng: rand.New(rand.NewSource(seed))}
	var spent time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(root, fmt.Sprintf("grid%d", i))
		t0 := time.Now()
		g, err := standUp(w, seed, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		b.setup = append(b.setup, time.Since(t0))
		spent += time.Since(t0)
		if i+1 >= maxSetups || (i+1 >= minSetups && spent >= setupTime) {
			b.grid = g
			break
		}
		g.Close()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	res, err := b.grid.Locator.Resolve(datasetID, "local")
	if err != nil {
		b.grid.Close()
		return nil, err
	}
	b.dsPath = strings.TrimPrefix(res.Replicas[0].URL, "file://")
	cuts := []string{""}
	if w.cycles > 0 {
		cuts = tuneCuts
	}
	for _, c := range cuts {
		if b.refs[c], err = serialReference(b.dsPath, w.bundle(c)); err != nil {
			b.grid.Close()
			return nil, fmt.Errorf("serial reference: %w", err)
		}
	}
	return b, nil
}

// standUp is the timed setup: grid, user enrolment, dataset publish.
func standUp(w workload, seed int64, dir string) (*core.LocalGrid, error) {
	g, err := core.NewLocalGrid(core.GridOptions{Nodes: engines, BaseDir: dir, Shards: w.shards})
	if err != nil {
		return nil, err
	}
	if _, err := g.AddUser(user, gsi.RoleAnalyst); err != nil {
		g.Close()
		return nil, err
	}
	if err := g.PublishDataset(datasetID, "/lc/bench", w.name, w.events,
		events.GenConfig{Seed: seed}, map[string]string{"workload": w.name}); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

// sessionTiming is one session's open and stage phases.
type sessionTiming struct {
	open, stage, session time.Duration
	staging              core.StagingTimes
}

// runTiming is one analysis run: a whole session's Run, or a tune cycle.
type runTiming struct {
	// ttfr runs from Run (session) or LoadNative (cycle) to the first
	// poll returning a merged object with entries.
	ttfr time.Duration
	// complete runs from Run until every engine is done and the merged
	// result matched the serial reference; cycle from the code load.
	complete, cycle time.Duration
	events          int64
	// polls / changed count polls and those that carried news; early
	// counts polls where EventsDone == EventsTotal held before every
	// engine had reported done.
	polls, changed, early int
	// finish is each engine's first poll seen done, since Run.
	finish []time.Duration
	serial time.Duration
	// memMB is the process's resident Go memory when the run completed.
	memMB float64
}

// phaseStats collects one measured phase.
type phaseStats struct {
	sessions          []sessionTiming
	runs              []runTiming
	attempted, failed int
	cpu               time.Duration
	errs              []string
}

func (ps *phaseStats) fail(err error) {
	ps.failed++
	if len(ps.errs) < 5 {
		ps.errs = append(ps.errs, err.Error())
	}
}

// phase runs whole sessions until d has passed, recording spans into tr
// when it is non-nil.
func (b *bench) phase(d time.Duration, tr *tracer) *phaseStats {
	ps := &phaseStats{}
	start, cpu0 := time.Now(), cpuTime()
	streak := 0
	for time.Since(start) < d && streak < maxStreak {
		before := ps.failed
		b.session(ps, tr)
		if ps.failed > before {
			streak++
		} else {
			streak = 0
		}
	}
	ps.cpu = cpuTime() - cpu0
	return ps
}

// session drives one complete interactive session through the public
// client API: open, query, attach, then one run (or w.cycles tune
// cycles), then close. Failures are counted in ps per unit.
func (b *bench) session(ps *phaseStats, tr *tracer) {
	tr.newTrace()
	t0 := time.Now()
	sp := tr.begin("gsi.proxy", -1)
	c, err := b.grid.ClientFor(user)
	tr.end(sp)
	if err != nil {
		ps.attempted++
		ps.fail(fmt.Errorf("client: %w", err))
		return
	}
	sp = tr.begin("session.create", -1)
	err = c.CreateSession()
	tr.end(sp)
	if err != nil {
		ps.attempted++
		ps.fail(fmt.Errorf("create session: %w", err))
		return
	}
	sid := c.SessionID()
	defer func() {
		sp := tr.begin("session.close", -1)
		err := c.CloseSession()
		tr.end(sp)
		if err != nil {
			ps.fail(fmt.Errorf("close session: %w", err))
		}
		b.dropScratch(sid)
	}()
	st := sessionTiming{open: time.Since(t0)}
	if err := b.stage(c, tr, &st); err != nil {
		ps.attempted++
		ps.fail(err)
		return
	}
	if b.w.cycles == 0 {
		ps.attempted++
		rt, err := b.analyse(c, tr, "", false)
		if err != nil {
			ps.fail(err)
			return
		}
		st.session = time.Since(t0)
		ps.runs = append(ps.runs, rt)
		ps.sessions = append(ps.sessions, st)
		return
	}
	for i := 0; i < b.w.cycles; i++ {
		ps.attempted++
		tr.newTrace()
		rt, err := b.analyse(c, tr, b.nextCut(), true)
		if err != nil {
			// The session's state is unknown after a failed cycle.
			ps.fail(err)
			return
		}
		ps.runs = append(ps.runs, rt)
	}
	st.session = time.Since(t0)
	ps.sessions = append(ps.sessions, st)
}

// stage queries the catalog and attaches the workload's dataset.
func (b *bench) stage(c *core.Client, tr *tracer, st *sessionTiming) error {
	t0 := time.Now()
	if n := c.Engines(); n != engines {
		return fmt.Errorf("session has %d engines, want %d", n, engines)
	}
	sp := tr.begin("catalog.query", -1)
	hits, err := c.QueryCatalog(fmt.Sprintf("workload == %q", b.w.name))
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("catalog query: %w", err)
	}
	if len(hits) != 1 {
		return fmt.Errorf("catalog query: %d hits, want 1", len(hits))
	}
	sp = tr.begin("session.attach", -1)
	st.staging, err = c.AttachDataset(hits[0].ID)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("attach: %w", err)
	}
	st.stage = time.Since(t0)
	return nil
}

// nextCut draws the next tune cut, never repeating the previous one.
func (b *bench) nextCut() string {
	for {
		c := tuneCuts[b.rng.Intn(len(tuneCuts))]
		if c != b.lastCut {
			b.lastCut = c
			return c
		}
	}
}

// analyse loads the analysis, runs it (after a rewind, for a tune
// cycle), polls every pollInterval until every engine is done, and
// checks the merged result against the serial reference.
func (b *bench) analyse(c *core.Client, tr *tracer, cut string, cycle bool) (runTiming, error) {
	var rt runTiming
	bundle := b.w.bundle(cut)
	ref := b.refs[cut]
	tLoad := time.Now()
	sp := tr.begin("codeloader.load", -1)
	err := load(c, bundle)
	tr.end(sp)
	if err != nil {
		return rt, fmt.Errorf("load code: %w", err)
	}
	if cycle {
		sp = tr.begin("session.control", -1)
		err = c.Rewind()
		tr.end(sp)
		if err != nil {
			return rt, fmt.Errorf("rewind: %w", err)
		}
	}
	tRun := time.Now()
	sp = tr.begin("session.control", -1)
	err = c.Run()
	tr.end(sp)
	if err != nil {
		return rt, fmt.Errorf("run: %w", err)
	}
	tFirst := tRun
	if cycle {
		tFirst = tLoad
	}

	await := tr.begin("core.await", -1)
	finish := map[string]time.Duration{}
	for {
		sp := tr.begin("core.poll", await)
		up, err := c.Poll()
		tr.end(sp)
		if err != nil {
			tr.end(await)
			return rt, fmt.Errorf("poll: %w", err)
		}
		now := time.Now()
		rt.polls++
		if up.Changed {
			rt.changed++
		}
		if rt.ttfr == 0 && hasEntries(c, up.ChangedPaths) {
			rt.ttfr = now.Sub(tFirst)
		}
		var total int64
		done := map[string]bool{}
		for _, p := range up.Progress {
			total += p.EventsTotal
			if p.EventsTotal > 0 && p.EventsDone == p.EventsTotal {
				done[p.WorkerID] = true
				if _, seen := finish[p.WorkerID]; !seen {
					finish[p.WorkerID] = now.Sub(tRun)
				}
			}
		}
		allDone := len(done) == engines && len(up.Progress) == engines
		if !allDone && up.EventsTotal > 0 && up.EventsDone == up.EventsTotal {
			rt.early++
		}
		if allDone {
			if total != int64(b.w.events) {
				tr.end(await)
				return rt, fmt.Errorf("engines report %d events, dataset has %d", total, b.w.events)
			}
			rt.events = total
			break
		}
		for _, l := range up.Logs {
			if strings.Contains(l, "ERROR") {
				tr.end(await)
				return rt, fmt.Errorf("engine: %s", l)
			}
		}
		if now.Sub(tRun) > runTimeout {
			tr.end(await)
			return rt, fmt.Errorf("run not complete after %v (%d/%d events)", runTimeout, up.EventsDone, up.EventsTotal)
		}
		time.Sleep(pollInterval)
	}
	tr.end(await)
	sp = tr.begin("bench.check", -1)
	err = sameTree(c.Tree(), ref.tree)
	tr.end(sp)
	if err != nil {
		return rt, fmt.Errorf("merged result differs from serial reference: %w", err)
	}
	if rt.ttfr == 0 {
		return rt, errors.New("run completed without a merged object with entries")
	}
	end := time.Now()
	rt.complete, rt.cycle = end.Sub(tRun), end.Sub(tLoad)
	for _, d := range finish {
		rt.finish = append(rt.finish, d)
	}
	rt.serial = ref.serial
	rt.memMB = residentMB()
	return rt, nil
}

func load(c *core.Client, b codeloader.Bundle) error {
	var err error
	if b.Language == codeloader.LangScript {
		_, err = c.LoadScript(b.Name, b.Source, b.Decoder, b.Params)
	} else {
		_, err = c.LoadNative(b.Name, b.Analysis, b.Params)
	}
	return err
}

// hasEntries reports whether a poll's changed objects hold any entries.
func hasEntries(c *core.Client, paths []string) bool {
	t := c.Tree()
	for _, p := range paths {
		if o := t.Get(p); o != nil && o.EntriesCount() > 0 {
			return true
		}
	}
	return false
}

// dropScratch deletes a closed session's staged parts: session teardown
// removes the shared-disk copy but leaves the worker scratch copies, and
// without this a native-stage run would fill its directory.
func (b *bench) dropScratch(sid string) {
	for _, node := range b.grid.Cluster.Nodes() {
		if el := b.grid.Scratch(node); el != nil {
			el.DeleteTree(path.Join("/scratch", sid))
		}
	}
}

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// residentMB is the memory the Go runtime holds from the OS: everything
// it mapped minus what it has released back.
func residentMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}
