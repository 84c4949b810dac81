package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/ipa-grid/ipa/internal/aida"
	"github.com/ipa-grid/ipa/internal/analysis"
	"github.com/ipa-grid/ipa/internal/codeloader"
	"github.com/ipa-grid/ipa/internal/dataset"
	"github.com/ipa-grid/ipa/internal/events"
	"github.com/ipa-grid/ipa/internal/splitter"
	"github.com/ipa-grid/ipa/internal/storage"
)

const (
	// replayMin is the least time each in-memory kernel replay measures.
	replayMin = 200 * time.Millisecond
	// replayRecords caps the records held in memory for the replays.
	replayRecords = 20000
)

// replays calls each kernel's public function single-threaded on the
// run's generated dataset, outside any session, and reports its cost.
// scratch is an empty directory for the copies the I/O kernels write.
func replays(dsPath, scratch string) (map[string]float64, error) {
	m := map[string]float64{}
	r, f, err := dataset.Open(dsPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	// dataset: Reader.Iter over the whole file.
	var n int64
	t0 := time.Now()
	for time.Since(t0) < replayMin {
		it, err := r.Iter(0, r.NumRecords())
		if err != nil {
			return nil, err
		}
		for {
			if _, err := it.Next(); err == io.EOF {
				break
			} else if err != nil {
				return nil, err
			}
			n++
		}
	}
	m["dataset.read_ns_per_event"] = float64(time.Since(t0)) / float64(n)

	recs, err := readRecords(r, replayRecords)
	if err != nil {
		return nil, err
	}

	// events: UnmarshalInto on in-memory records.
	var ev events.Event
	n = 0
	t0 = time.Now()
	for time.Since(t0) < replayMin {
		for _, rec := range recs {
			if err := events.UnmarshalInto(rec, &ev); err != nil {
				return nil, err
			}
		}
		n += int64(len(recs))
	}
	m["events.decode_ns_per_event"] = float64(time.Since(t0)) / float64(n)

	// script: the quickstart script; analysis: the native Higgs search.
	for _, k := range []struct {
		prefix string
		w      workload
	}{{"script", workload{script: true}}, {"analysis", workload{}}} {
		ns, allocs, err := replayBundle(k.w.bundle(""), recs)
		if err != nil {
			return nil, fmt.Errorf("%s replay: %w", k.prefix, err)
		}
		m[k.prefix+".process_ns_per_event"] = ns
		m[k.prefix+".allocs_per_event"] = allocs
	}

	st, err := os.Stat(dsPath)
	if err != nil {
		return nil, err
	}
	mb := float64(st.Size()) / (1 << 20)

	// splitter: SplitFile into one part per engine.
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	t0 = time.Now()
	if _, err := splitter.SplitFile(dsPath, engines, func(i int) string {
		return filepath.Join(scratch, fmt.Sprintf("part-%d.ipa", i))
	}); err != nil {
		return nil, fmt.Errorf("split replay: %w", err)
	}
	m["splitter.split_MBps"] = mb / time.Since(t0).Seconds()

	// storage: Element.Put of the whole file.
	el, err := storage.New("replay", filepath.Join(scratch, "element"))
	if err != nil {
		return nil, err
	}
	src, err := os.Open(dsPath)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	t0 = time.Now()
	if _, err := el.Put("/copy.ipa", src); err != nil {
		return nil, fmt.Errorf("put replay: %w", err)
	}
	m["storage.put_MBps"] = mb / time.Since(t0).Seconds()
	return m, os.RemoveAll(scratch)
}

// readRecords copies up to max records out of the reader.
func readRecords(r *dataset.Reader, max int64) ([][]byte, error) {
	n := r.NumRecords()
	if n > max {
		n = max
	}
	it, err := r.Iter(0, n)
	if err != nil {
		return nil, err
	}
	recs := make([][]byte, 0, n)
	for {
		rec, err := it.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, err
		}
		recs = append(recs, append([]byte(nil), rec...))
	}
}

// replayBundle instantiates b and times Process over recs (repeated
// until replayMin has passed), returning ns and heap allocations per
// event.
func replayBundle(b codeloader.Bundle, recs [][]byte) (ns, allocs float64, err error) {
	a, err := b.Instantiate(nil)
	if err != nil {
		return 0, 0, err
	}
	ctx := &analysis.Context{Tree: aida.NewTree(), Params: b.Params, WorkerID: "replay"}
	if err := a.Init(ctx); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var n int64
	t0 := time.Now()
	for time.Since(t0) < replayMin {
		for i, rec := range recs {
			ctx.EventIndex = int64(i)
			if err := a.Process(rec, ctx); err != nil {
				return 0, 0, err
			}
			n++
			if n%256 == 0 && time.Since(t0) >= replayMin {
				break
			}
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	return float64(d) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}
