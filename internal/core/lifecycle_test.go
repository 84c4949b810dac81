package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/events"
)

// liveEngines counts the engines the grid still holds.
func (g *LocalGrid) liveEngines() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.engines)
}

// waitFor polls cond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// runShortSession opens a session, runs a script over the dataset to the
// end, and closes it.
func runShortSession(t *testing.T, g *LocalGrid) {
	t.Helper()
	c, err := g.ClientFor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachDataset("ds-zh"); err != nil {
		t.Fatal(err)
	}
	src := `h = tree.h1d("/l", "n", "", 20, 0, 200); function process(ev) { h.fill(ev.n); }`
	if _, err := c.LoadScript("leak", src, events.EventDecoderName, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, c, 30*time.Second)
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedSessionsReleaseEverything: a closed session leaves nothing
// behind — no session resource awaiting the sweep, no engine in the grid,
// no GRAM job or scheduler record, and no goroutines for the client's
// connections.
func TestClosedSessionsReleaseEverything(t *testing.T) {
	g := newGrid(t, 200)
	// One warm-up session starts the grid's lazily created goroutines.
	runShortSession(t, g)
	if !waitFor(5*time.Second, func() bool { return g.liveEngines() == 0 }) {
		t.Fatalf("%d engines retained after the warm-up session", g.liveEngines())
	}
	base := runtime.NumGoroutine()
	baseGram, baseJobs := g.Gram.JobCount(), g.Cluster.JobCount()

	for i := 0; i < 20; i++ {
		runShortSession(t, g)
	}
	if n := g.Session.Resources(); n != 0 {
		t.Errorf("%d session resources left in the resource home", n)
	}
	if !waitFor(5*time.Second, func() bool { return g.liveEngines() == 0 }) {
		t.Errorf("%d engines retained after 20 closed sessions", g.liveEngines())
	}
	if n := g.Gram.JobCount(); n != baseGram {
		t.Errorf("GRAM tracks %d jobs after 20 closed sessions, baseline %d", n, baseGram)
	}
	if n := g.Cluster.JobCount(); n != baseJobs {
		t.Errorf("scheduler holds %d job records after 20 closed sessions, baseline %d", n, baseJobs)
	}
	if !waitFor(5*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines %d after 20 closed sessions, baseline %d\n%s",
			runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
	}
}
