package rmi

import (
	"testing"

	"github.com/ipa-grid/ipa/internal/obs"
)

// traceArgs implements obs.Carrier/Setter so the client lifts the
// context into the envelope and the server injects it back.
type traceArgs struct {
	Msg   string
	Trace obs.TraceContext
}

func (a traceArgs) TraceCtx() obs.TraceContext      { return a.Trace }
func (a *traceArgs) SetTraceCtx(t obs.TraceContext) { a.Trace = t }

type traceReply struct {
	Msg   string
	Trace obs.TraceContext
}

type traceService struct{}

// Echo reports the trace context the server-side dispatch recovered.
func (s *traceService) Echo(args traceArgs, reply *traceReply) error {
	reply.Msg = args.Msg
	reply.Trace = args.Trace
	return nil
}

func startTraceServer(t *testing.T) string {
	t.Helper()
	s := NewServer(nil)
	if err := s.Register("Trace", &traceService{}); err != nil {
		t.Fatal(err)
	}
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return addr.String()
}

// TestTracePropagationV2 drives one traced and one untraced call and
// checks the server saw a hop-advanced copy of the same trace.
func TestTracePropagationV2(t *testing.T) {
	addr := startTraceServer(t)
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sent := obs.NewTrace()
	if !sent.Valid() {
		t.Fatal("NewTrace returned an untraced context with recording enabled")
	}
	var reply traceReply
	if err := c.Call("Trace.Echo", traceArgs{Msg: "hi", Trace: sent}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Msg != "hi" {
		t.Fatalf("payload corrupted: %+v", reply)
	}
	if reply.Trace.TraceID != sent.TraceID {
		t.Errorf("server trace ID %x, want %x", reply.Trace.TraceID, sent.TraceID)
	}
	if reply.Trace.Hop != sent.Hop+1 {
		t.Errorf("server hop = %d, want %d", reply.Trace.Hop, sent.Hop+1)
	}
	if reply.Trace.SpanID == sent.SpanID {
		t.Errorf("server span ID not re-minted across the hop")
	}

	// An untraced call must arrive untraced: the envelope's empty trace
	// block must not invent a context.
	var bare traceReply
	if err := c.Call("Trace.Echo", traceArgs{Msg: "bare"}, &bare); err != nil {
		t.Fatal(err)
	}
	if bare.Trace.Valid() {
		t.Errorf("untraced call arrived traced: %+v", bare.Trace)
	}
}

// TestTraceDisabledCostsNothing: with recording ablated, the client
// must send the untraced (zero) context.
func TestTraceDisabledCostsNothing(t *testing.T) {
	defer obs.SetDisabled(false)
	obs.SetDisabled(true)
	addr := startTraceServer(t)
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply traceReply
	if err := c.Call("Trace.Echo", traceArgs{Msg: "off", Trace: obs.NewTrace()}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Trace.Valid() {
		t.Errorf("disabled tracing still propagated a context: %+v", reply.Trace)
	}
}
