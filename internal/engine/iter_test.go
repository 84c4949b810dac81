package engine

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/merge"
)

// makeSeqPart writes n records; record i holds i (8 bytes big endian)
// followed by a payload of byte(i). Every 50th record is larger than the
// iterator's read window.
func makeSeqPart(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), fmt.Sprintf("seq-%d.ipa", n))
	w, closer, err := dataset.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		size := 8 + (i*37)%1500
		if i%50 == 49 {
			size = dataset.IterWindow + 1000
		}
		rec := make([]byte, size)
		binary.BigEndian.PutUint64(rec, uint64(i))
		for j := 8; j < size; j++ {
			rec[j] = byte(i)
		}
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}
	return path
}

// seqAnalysis fails unless it is handed every record of its part exactly
// once, in order, intact, with EventIndex the part offset plus the record
// number. End reports how many records it saw. A delay per record keeps
// batches long enough for a rewind to land in the middle of one.
type seqAnalysis struct {
	next, offset int64
	delay        time.Duration
	report       func(int64)
}

func (a *seqAnalysis) Init(*analysis.Context) error { return nil }

func (a *seqAnalysis) Process(rec []byte, ctx *analysis.Context) error {
	if len(rec) < 8 {
		return fmt.Errorf("short record %d", a.next)
	}
	i := int64(binary.BigEndian.Uint64(rec))
	if i != a.next {
		return fmt.Errorf("got record %d, want %d", i, a.next)
	}
	if a.next == 0 {
		a.offset = ctx.EventIndex
	}
	if ctx.EventIndex != a.offset+i {
		return fmt.Errorf("record %d has EventIndex %d (offset %d)", i, ctx.EventIndex, a.offset)
	}
	for _, b := range rec[8:] {
		if b != byte(i) {
			return fmt.Errorf("record %d payload corrupted", i)
		}
	}
	a.next++
	for start := time.Now(); time.Since(start) < a.delay; {
	}
	return nil
}

func (a *seqAnalysis) End(*analysis.Context) error {
	a.report(a.next)
	return nil
}

// TestIteratorAcrossBatchesRewindAndRestage: the engine's iterator, kept
// across batches, hands the analysis every record exactly once through
// steps, rewinds (also while running) and a re-stage onto a new part.
func TestIteratorAcrossBatchesRewindAndRestage(t *testing.T) {
	var mu sync.Mutex
	var lastEnd int64 = -1
	reg := analysis.NewRegistry()
	reg.Register("seq", func(params map[string]string) (analysis.Analysis, error) {
		delay, _ := time.ParseDuration(params["delay"])
		return &seqAnalysis{delay: delay, report: func(n int64) {
			mu.Lock()
			lastEnd = n
			mu.Unlock()
		}}, nil
	})
	e := New(Config{
		SessionID: "s1", WorkerID: "w0", Publisher: merge.NewManager(), Registry: reg,
		SnapshotEvery: 1000, SnapshotInterval: time.Hour,
	})
	go e.Serve()
	t.Cleanup(e.Shutdown)
	if err := e.SetPart(makeSeqPart(t, 300), 0); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadCode(&codeloader.Bundle{Name: "seq", Language: codeloader.LangNative, Analysis: "seq"}); err != nil {
		t.Fatal(err)
	}
	finish := func(want int64) {
		t.Helper()
		if st, err := e.WaitState(10*time.Second, StateFinished, StateError); st != StateFinished {
			_, lastErr := e.State()
			t.Fatalf("state %v (%v), last error %v", st, err, lastErr)
		}
		done, total := e.Progress()
		mu.Lock()
		seen := lastEnd
		lastEnd = -1
		mu.Unlock()
		if done != want || total != want || seen != want {
			t.Fatalf("progress %d/%d, analysis saw %d, want %d", done, total, seen, want)
		}
	}

	// A step that ends mid-batch, then the rest.
	if err := e.Step(100); err != nil {
		t.Fatal(err)
	}
	if st, err := e.WaitState(10*time.Second, StatePaused); err != nil {
		t.Fatalf("state after step: %v %v", st, err)
	}
	if done, _ := e.Progress(); done != 100 {
		t.Fatalf("step processed %d, want 100", done)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	finish(300)

	rerun := func() {
		t.Helper()
		if err := e.Rewind(); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		rerun()
		finish(300)
	}

	// Rewinds that land while a batch is in flight: slow records keep
	// the second batch running when the first one's progress shows.
	slow := &codeloader.Bundle{Name: "seq", Language: codeloader.LangNative, Analysis: "seq",
		Params: map[string]string{"delay": "20us"}}
	if err := e.LoadCode(slow); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		rerun()
		for done, _ := e.Progress(); done < batchSize; done, _ = e.Progress() {
			time.Sleep(50 * time.Microsecond)
		}
		rerun()
		finish(300)
	}

	// Re-stage onto a different part at a different global offset.
	if err := e.SetPart(makeSeqPart(t, 130), 5000); err != nil {
		t.Fatal(err)
	}
	if err := e.Rewind(); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	finish(130)
}

// TestBadBinningScriptFailsOnlyItsEngine: a script booking a histogram
// with lo >= hi fails its own engine's init with an error; an engine
// running a good script beside it is unaffected.
func TestBadBinningScriptFailsOnlyItsEngine(t *testing.T) {
	mgr := merge.NewManager()
	bad := startEngine(t, mgr, makePart(t, 50, 9), 50)
	good := startEngine(t, mgr, makePart(t, 50, 10), 50)
	if err := bad.LoadCode(scriptBundle(t, `
		h = tree.h1d("/d", "m", "", 40, 160, 0);
		function process(ev) { h.fill(ev.n); }
	`)); err != nil {
		t.Fatal(err)
	}
	if err := good.LoadCode(scriptBundle(t, multiplicityScript)); err != nil {
		t.Fatal(err)
	}
	bad.Run()
	good.Run()
	if st, _ := bad.WaitState(10*time.Second, StateError); st != StateError {
		t.Fatalf("bad-binning engine state %v, want Error", st)
	}
	if _, err := bad.State(); err == nil || !strings.Contains(err.Error(), "invalid axis") {
		t.Fatalf("bad-binning engine error = %v", err)
	}
	if st, err := good.WaitState(10*time.Second, StateFinished); st != StateFinished {
		t.Fatalf("good engine state %v, %v", st, err)
	}
}
