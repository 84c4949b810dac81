package core

import (
	"fmt"
	"path"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/engine"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/merge"
)

// panicAnalysisName is a native analysis that panics at the record whose
// global index is its "at" parameter.
const panicAnalysisName = "test-panic-at"

var registerPanicAnalysis sync.Once

func panicAnalysis(params map[string]string) (analysis.Analysis, error) {
	at, err := strconv.ParseInt(params["at"], 10, 64)
	if err != nil {
		return nil, err
	}
	return &analysis.Func{ProcessFn: func(rec []byte, ctx *analysis.Context) error {
		if ctx.EventIndex == at {
			panic(fmt.Sprintf("deliberate fault at record %d", at))
		}
		return nil
	}}, nil
}

// TestAnalysisPanicFailsOnlyItsEngine: a native analysis that panics
// mid-part puts its own engine in the Error state, with the panic and the
// record named in the engine's error and in the polled logs. The process
// survives, and the next session on the same grid runs to completion.
func TestAnalysisPanicFailsOnlyItsEngine(t *testing.T) {
	registerPanicAnalysis.Do(func() { analysis.Register(panicAnalysisName, panicAnalysis) })
	g := newGrid(t, 400)
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
	if _, err := c.LoadNative("boom", panicAnalysisName, map[string]string{"at": "150"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	const want = "record 150: analysis panicked: deliberate fault at record 150"
	var failed, finished int
	ok := waitFor(30*time.Second, func() bool {
		st, err := c.Status()
		if err != nil {
			t.Fatal(err)
		}
		failed, finished = 0, 0
		for _, e := range st.Engines {
			switch e.State {
			case string(engine.StateError):
				if !strings.Contains(e.Err, want) {
					t.Fatalf("engine error %q, want it to name %q", e.Err, want)
				}
				failed++
			case string(engine.StateFinished):
				finished++
			}
		}
		return failed+finished == len(st.Engines)
	})
	if !ok || failed != 1 {
		t.Fatalf("after the panic: %d engines failed, %d finished (settled %v)", failed, finished, ok)
	}
	var logs []string
	waitFor(10*time.Second, func() bool {
		up, err := c.Poll()
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, up.Logs...)
		return strings.Contains(strings.Join(logs, "\n"), want)
	})
	if !strings.Contains(strings.Join(logs, "\n"), want) {
		t.Fatalf("polled logs %q do not report %q", logs, want)
	}
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}

	// The process and the grid survived: a new session runs cleanly.
	c2, err := g.ClientFor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c2.CloseSession()
	if _, err := c2.AttachDataset("ds-zh"); err != nil {
		t.Fatal(err)
	}
	src := `h = tree.h1d("/p", "n", "", 20, 0, 200); function process(ev) { h.fill(ev.n); }`
	if _, err := c2.LoadScript("after", src, events.EventDecoderName, nil); err != nil {
		t.Fatal(err)
	}
	if err := c2.Run(); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, c2, 30*time.Second)
	if _, err := c2.Poll(); err != nil {
		t.Fatal(err)
	}
	if h := c2.Histogram1D("/p/n"); h == nil || h.AllEntries() != 400 {
		t.Fatalf("second session merged %v, want 400 entries", h)
	}
}

// TestClosedSessionLeavesNoScratchParts: closing a session deletes the
// dataset parts it staged on every worker's scratch element.
func TestClosedSessionLeavesNoScratchParts(t *testing.T) {
	g := newGrid(t, 400)
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
	sid := c.SessionID()
	dir := path.Join("/scratch", sid)
	staged := 0
	for _, node := range g.Cluster.Nodes() {
		if el := g.Scratch(node); el != nil && el.Exists(dir) {
			staged++
		}
	}
	if staged == 0 {
		t.Fatalf("no scratch element holds %s after staging", dir)
	}
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
	for _, node := range g.Cluster.Nodes() {
		el := g.Scratch(node)
		if el == nil {
			continue
		}
		if el.Exists(dir) {
			names, _ := el.List(dir)
			t.Errorf("node %s still holds %s after close: %v", node, dir, names)
		}
	}
}

// TestPollDoneWaitsForEveryEngine: with one engine's full part published
// and the others silent, the summed counters read complete, but Done
// stays false until every engine has reported its whole part.
func TestPollDoneWaitsForEveryEngine(t *testing.T) {
	g := newGrid(t, 400)
	c, err := g.ClientFor("alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSession(); err != nil {
		t.Fatal(err)
	}
	defer c.CloseSession()
	if c.Engines() < 2 {
		t.Fatalf("session has %d engines, want at least 2", c.Engines())
	}
	d, err := aida.NewTree().FullDelta()
	if err != nil {
		t.Fatal(err)
	}
	var reply merge.PublishReply
	if err := g.Merge.Publish(merge.PublishArgs{
		SessionID: c.SessionID(), WorkerID: "first", Seq: 1, Delta: d,
		EventsDone: 100, EventsTotal: 100,
	}, &reply); err != nil {
		t.Fatal(err)
	}
	up, err := c.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if up.EventsDone != up.EventsTotal || up.EventsTotal != 100 {
		t.Fatalf("progress %d/%d, want the lone engine's 100/100", up.EventsDone, up.EventsTotal)
	}
	if up.Done {
		t.Fatalf("Done with 1 of %d engines reported", c.Engines())
	}
	// Once every engine has run its part, Done holds.
	if _, err := c.AttachDataset("ds-zh"); err != nil {
		t.Fatal(err)
	}
	src := `h = tree.h1d("/d", "n", "", 20, 0, 200); function process(ev) { h.fill(ev.n); }`
	if _, err := c.LoadScript("done", src, events.EventDecoderName, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	waitFinished(t, c, 30*time.Second)
	if !waitFor(10*time.Second, func() bool {
		up, err = c.Poll()
		return err == nil && up.Done
	}) {
		t.Fatalf("Done never held after the run: %+v, %v", up.Progress, err)
	}
}
