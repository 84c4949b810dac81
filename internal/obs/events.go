// Fabric events and spans: structured records of the moments an
// operator asks about after the fact — a session handoff, a replica
// promotion, a fence, a rebalance move, an eviction, a shard revival —
// plus per-hop spans of traced calls. They land in a bounded in-memory
// ring (oldest overwritten first) readable over RPC (Service) and
// surfaced in /fabric/status, so "what just happened" has an answer
// without log scraping.

package obs

import (
	"sync"
	"time"
)

// Event kinds emitted by the fabric (Kind is free-form; these are the
// well-known values).
const (
	EventHandoff      = "handoff"
	EventPromote      = "promote"
	EventFence        = "fence"
	EventMove         = "rebalance-move"
	EventEviction     = "eviction"
	EventDeadMark     = "dead-mark"
	EventRevival      = "revival"
	EventReplicate    = "replicate"
	EventSpan         = "span"
	EventBackpressure = "mirror-backpressure"
	EventRepair       = "anti-entropy-repair"
	EventWALTail      = "wal-tail"
	EventHandlerPanic = "rmi-handler-panic"
)

// Event is one structured fabric occurrence.
type Event struct {
	// Seq is the ring-assigned monotonic sequence number; readers resume
	// with Since(lastSeq).
	Seq uint64 `json:"seq"`
	// At is the wall-clock stamp.
	At time.Time `json:"at"`
	// Kind is the event type (see the Event* constants).
	Kind string `json:"kind"`
	// Shard / Session scope the event ("" when not applicable).
	Shard   string `json:"shard,omitempty"`
	Session string `json:"session,omitempty"`
	// TraceID links the event to a propagated trace (0 = none).
	TraceID uint64 `json:"traceID,omitempty"`
	// SpanID / Hop identify the hop of a span event (zero otherwise).
	SpanID uint64 `json:"spanID,omitempty"`
	Hop    uint32 `json:"hop,omitempty"`
	// DurNanos is a span event's duration in nanoseconds (0 otherwise).
	DurNanos int64 `json:"durNanos,omitempty"`
	// Detail is a short human-readable elaboration (the span name for
	// span events — spans carry their numbers in the fields above so
	// recording one never formats strings on the hot path).
	Detail string `json:"detail,omitempty"`
}

// Ring is a bounded event buffer: appends overwrite the oldest entry
// once full, reads are by sequence number. A single mutex is fine here
// — events are edge occurrences (failovers, moves) plus spans, orders
// of magnitude rarer than metric increments. Storage is circular
// (head index, no element shifting), so an append into a full ring
// costs one slot store, not a buffer-wide move.
type Ring struct {
	mu   sync.Mutex
	buf  []Event
	head int    // index of the oldest retained event
	n    int    // retained count; buf holds seqs [next-n, next)
	next uint64 // seq to assign next
}

// DefaultRingSize bounds the global event ring.
const DefaultRingSize = 1024

// NewRing creates a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Add stamps and appends one event, evicting the oldest when full.
// No-op while recording is disabled.
func (r *Ring) Add(e Event) {
	if disabled.Load() {
		return
	}
	e.At = time.Now()
	r.mu.Lock()
	e.Seq = r.next
	r.next++
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = e
		r.n++
	} else {
		r.buf[r.head] = e
		r.head = (r.head + 1) % len(r.buf)
	}
	r.mu.Unlock()
}

// Since returns up to max events with Seq >= seq, oldest first (max <=
// 0 means no limit). Events already overwritten are simply absent —
// the first returned Seq tells the reader how much it missed.
func (r *Ring) Since(seq uint64, max int) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	oldest := r.next - uint64(r.n)
	skip := 0
	if seq > oldest {
		skip = int(seq - oldest)
		if skip > r.n {
			skip = r.n
		}
	}
	count := r.n - skip
	if max > 0 && count > max {
		count = max
	}
	out := make([]Event, count)
	for i := 0; i < count; i++ {
		out[i] = r.buf[(r.head+skip+i)%len(r.buf)]
	}
	return out
}

// Len reports how many events the ring currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// NextSeq is the sequence number the next Add will assign — a reader
// polling Since(NextSeq()) sees only future events.
func (r *Ring) NextSeq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Events is the process-wide fabric event ring.
var Events = NewRing(DefaultRingSize)

// eventsTotal counts events emitted (including ones later overwritten).
var eventsTotal = GetCounter("ipa_obs_events_total", "Fabric events emitted into the ring.")

// Emit records one fabric event in the global ring.
func Emit(kind, shard, session string, traceID uint64, detail string) {
	if disabled.Load() {
		return
	}
	eventsTotal.Inc()
	Events.Add(Event{Kind: kind, Shard: shard, Session: session, TraceID: traceID, Detail: detail})
}

// RecordSpan records one hop of a traced call as a span event in the
// global ring. Untraced contexts record nothing, so the cost is paid
// only by calls that opted into tracing — and what they pay is one
// struct store under the ring mutex: the context and duration land in
// Event's numeric fields, never formatted here.
func RecordSpan(t TraceContext, name string, d time.Duration) {
	if !t.Valid() || disabled.Load() {
		return
	}
	eventsTotal.Inc()
	Events.Add(Event{
		Kind: EventSpan, TraceID: t.TraceID, SpanID: t.SpanID, Hop: t.Hop,
		DurNanos: int64(d), Detail: name,
	})
}
