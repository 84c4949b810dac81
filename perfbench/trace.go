package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed client call. Spans of one session or tune cycle
// share a trace ID; parent is the index of the enclosing span (-1 for a
// top-level call).
type span struct {
	Trace  int           `json:"trace"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	Dur    time.Duration `json:"dur_ns"`
}

// tracer keeps spans in memory; a nil *tracer records nothing, so the
// untraced phases pay one nil check per call.
type tracer struct {
	epoch time.Time
	trace int
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newTrace starts a new trace ID for the next session or cycle.
func (t *tracer) newTrace() {
	if t != nil {
		t.trace++
	}
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Trace: t.trace, Parent: parent, Name: name, Start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].Dur = time.Since(t.epoch) - t.spans[i].Start
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.Dur)
		}
	}
	return out
}

// topLevel sums the durations of top-level spans, except the named ones.
func (t *tracer) topLevel(except ...string) time.Duration {
	var sum time.Duration
next:
	for _, s := range t.spans {
		if s.Parent >= 0 {
			continue
		}
		for _, e := range except {
			if s.Name == e {
				continue next
			}
		}
		sum += s.Dur
	}
	return sum
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
