package rmi

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/ipa-grid/ipa/internal/obs"
)

// calcService is a test object.
type calcService struct {
	mu    sync.Mutex
	calls int
}

type addArgs struct{ A, B float64 }

func (c *calcService) Add(args addArgs, reply *float64) error {
	c.mu.Lock()
	c.calls++
	c.mu.Unlock()
	*reply = args.A + args.B
	return nil
}

func (c *calcService) Fail(args struct{}, reply *string) error {
	return errors.New("deliberate failure")
}

// unsuitable methods must be skipped, not break registration.
func (c *calcService) NotRemote() int { return 0 }

type echoService struct{}

type echoArgs struct {
	Msg  string
	Nums []int
	Map  map[string]string
}

func (e *echoService) Echo(args echoArgs, reply *echoArgs) error {
	*reply = args
	return nil
}

func startServer(t *testing.T, validate TokenValidator) (*Server, string) {
	t.Helper()
	s := NewServer(validate)
	if err := s.Register("Calc", &calcService{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("Echo", &echoService{}); err != nil {
		t.Fatal(err)
	}
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, addr.String()
}

func TestBasicCall(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sum float64
	if err := c.Call("Calc.Add", addArgs{2, 3}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 5 {
		t.Fatalf("sum = %v", sum)
	}
}

func TestComplexTypesRoundTrip(t *testing.T) {
	_, addr := startServer(t, nil)
	c, _ := Dial(addr, "tok")
	defer c.Close()
	in := echoArgs{Msg: "hello", Nums: []int{1, 2, 3}, Map: map[string]string{"a": "b"}}
	var out echoArgs
	if err := c.Call("Echo.Echo", in, &out); err != nil {
		t.Fatal(err)
	}
	if out.Msg != in.Msg || len(out.Nums) != 3 || out.Map["a"] != "b" {
		t.Fatalf("echo = %+v", out)
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	_, addr := startServer(t, nil)
	c, _ := Dial(addr, "tok")
	defer c.Close()
	var out string
	err := c.Call("Calc.Fail", struct{}{}, &out)
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
	if _, ok := err.(RemoteError); !ok {
		t.Fatalf("error type %T, want RemoteError", err)
	}
	// The connection must remain usable after a remote error.
	var sum float64
	if err := c.Call("Calc.Add", addArgs{1, 1}, &sum); err != nil || sum != 2 {
		t.Fatalf("call after error: %v %v", sum, err)
	}
}

func TestUnknownObjectAndMethod(t *testing.T) {
	_, addr := startServer(t, nil)
	c, _ := Dial(addr, "tok")
	defer c.Close()
	var out float64
	if err := c.Call("Nope.Add", addArgs{1, 2}, &out); err == nil {
		t.Fatal("unknown object accepted")
	}
	if err := c.Call("Calc.Nope", addArgs{1, 2}, &out); err == nil {
		t.Fatal("unknown method accepted")
	}
	// Still aligned afterwards.
	if err := c.Call("Calc.Add", addArgs{1, 2}, &out); err != nil || out != 3 {
		t.Fatalf("stream misaligned after failures: %v %v", out, err)
	}
}

func TestBadCallTarget(t *testing.T) {
	_, addr := startServer(t, nil)
	c, _ := Dial(addr, "tok")
	defer c.Close()
	var out float64
	if err := c.Call("NoDotHere", addArgs{}, &out); err == nil {
		t.Fatal("target without dot accepted")
	}
}

func TestTokenValidation(t *testing.T) {
	validate := func(token, object, method string) error {
		if token != "valid-session" {
			return ErrBadToken
		}
		return nil
	}
	_, addr := startServer(t, validate)

	good, _ := Dial(addr, "valid-session")
	defer good.Close()
	var sum float64
	if err := good.Call("Calc.Add", addArgs{4, 5}, &sum); err != nil || sum != 9 {
		t.Fatalf("valid token rejected: %v", err)
	}

	bad, _ := Dial(addr, "stolen")
	defer bad.Close()
	err := bad.Call("Calc.Add", addArgs{4, 5}, &sum)
	if err == nil || !strings.Contains(err.Error(), "invalid or expired") {
		t.Fatalf("invalid token accepted: %v", err)
	}
	// SetToken upgrades the connection.
	bad.SetToken("valid-session")
	if err := bad.Call("Calc.Add", addArgs{1, 2}, &sum); err != nil || sum != 3 {
		t.Fatalf("token upgrade failed: %v", err)
	}
}

func TestRegisterRejectsMethodlessObject(t *testing.T) {
	s := NewServer(nil)
	type empty struct{}
	if err := s.Register("Empty", &empty{}); err == nil {
		t.Fatal("object without RMI methods registered")
	}
	if err := s.Register("", &calcService{}); err == nil {
		t.Fatal("empty name registered")
	}
	if err := s.Register("Calc", &calcService{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("Calc", &calcService{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := Dial(addr, "tok")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			for i := 0; i < 50; i++ {
				var sum float64
				if err := c.Call("Calc.Add", addArgs{float64(g), float64(i)}, &sum); err != nil {
					t.Error(err)
					return
				}
				if sum != float64(g+i) {
					t.Errorf("sum = %v, want %v", sum, g+i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConcurrentCallsOneClient(t *testing.T) {
	_, addr := startServer(t, nil)
	c, _ := Dial(addr, "tok")
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var sum float64
				if err := c.Call("Calc.Add", addArgs{float64(g), 1}, &sum); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestServerClose(t *testing.T) {
	s, addr := startServer(t, nil)
	c, _ := Dial(addr, "tok")
	var sum float64
	if err := c.Call("Calc.Add", addArgs{1, 1}, &sum); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := c.Call("Calc.Add", addArgs{1, 1}, &sum); err == nil {
		t.Fatal("call succeeded after server close")
	}
}

// sleepService exposes a deliberately slow method next to a fast one,
// for pipelining interleaving tests.
type sleepService struct{}

type sleepArgs struct{ MS int }

func (s *sleepService) Sleep(args sleepArgs, reply *int) error {
	time.Sleep(time.Duration(args.MS) * time.Millisecond)
	*reply = args.MS
	return nil
}

type pingArgs struct{ N int }

func (s *sleepService) Ping(args pingArgs, reply *int) error {
	*reply = args.N
	return nil
}

// TestPipelinedOutOfOrderReplies: on one connection, a fast call issued
// after a slow one must complete first — the server dispatches
// concurrently and the client matches the out-of-order replies back to
// their callers by sequence number.
func TestPipelinedOutOfOrderReplies(t *testing.T) {
	s := NewServer(nil)
	if err := s.Register("Svc", &sleepService{}); err != nil {
		t.Fatal(err)
	}
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := Dial(addr.String(), "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slowDone := make(chan error, 1)
	go func() {
		var got int
		err := c.Call("Svc.Sleep", sleepArgs{MS: 400}, &got)
		if err == nil && got != 400 {
			err = fmt.Errorf("slow reply = %d, want 400", got)
		}
		slowDone <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the slow request hit the wire first
	start := time.Now()
	var fast int
	if err := c.Call("Svc.Ping", pingArgs{N: 7}, &fast); err != nil {
		t.Fatal(err)
	}
	if fast != 7 {
		t.Fatalf("fast reply = %d, want 7", fast)
	}
	if d := time.Since(start); d > 300*time.Millisecond {
		t.Fatalf("fast call head-of-line-blocked behind the slow one (%v)", d)
	}
	select {
	case err := <-slowDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("slow call never completed")
	}
}

// TestPipelinedCallsMatchCallers hammers one client from many
// goroutines (run under -race): every reply must reach exactly the
// caller that asked for it.
func TestPipelinedCallsMatchCallers(t *testing.T) {
	// The subtest keeps the name it had when a serialized-call mode
	// existed beside the pipelined one.
	t.Run("serialized=false", func(t *testing.T) {
		_, addr := startServer(t, nil)
		c, err := Dial(addr, "tok")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			g := g
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					want := echoArgs{
						Msg:  fmt.Sprintf("g%d-i%d", g, i),
						Nums: []int{g, i},
					}
					var got echoArgs
					if err := c.Call("Echo.Echo", want, &got); err != nil {
						t.Error(err)
						return
					}
					if got.Msg != want.Msg || len(got.Nums) != 2 || got.Nums[0] != g || got.Nums[1] != i {
						t.Errorf("reply %+v does not match request %+v", got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestPipelinedSlowCallsOverlap: two slow calls on one connection run
// concurrently on the server, so their wall time is ~max, not ~sum.
func TestPipelinedSlowCallsOverlap(t *testing.T) {
	s := NewServer(nil)
	if err := s.Register("Svc", &sleepService{}); err != nil {
		t.Fatal(err)
	}
	addr, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	c, err := Dial(addr.String(), "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var got int
			if err := c.Call("Svc.Sleep", sleepArgs{MS: 200}, &got); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if d := time.Since(start); d > 380*time.Millisecond {
		t.Fatalf("2 × 200ms calls took %v: not overlapped", d)
	}
}

// TestPipelinedErrorsMatchCallers: remote errors interleaved with
// successes land on the right callers.
func TestPipelinedErrorsMatchCallers(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				var s string
				err := c.Call("Calc.Fail", struct{}{}, &s)
				if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
					t.Errorf("Fail returned %v", err)
					return
				}
				var sum float64
				if err := c.Call("Calc.Add", addArgs{A: float64(i), B: 1}, &sum); err != nil {
					t.Error(err)
					return
				}
				if sum != float64(i)+1 {
					t.Errorf("Add = %v, want %v", sum, float64(i)+1)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// crashService's handler panics on every call.
type crashService struct{}

func (c *crashService) Boom(args addArgs, reply *float64) error {
	var m map[string]int
	m["x"] = int(args.A) // nil-map write: a runtime panic in the handler
	return nil
}

// TestHandlerPanicIsRemoteError: a panicking handler fails only its own
// call — the caller gets a RemoteError naming the method, the same
// connection keeps working, and the server keeps accepting clients.
func TestHandlerPanicIsRemoteError(t *testing.T) {
	s, addr := startServer(t, nil)
	if err := s.Register("Crash", &crashService{}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := handlerPanics.Value()
	seq := obs.Events.NextSeq()
	var out float64
	err = c.Call("Crash.Boom", addArgs{A: 1}, &out)
	var re RemoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "Crash.Boom") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking call error = %v, want a RemoteError naming Crash.Boom", err)
	}
	if got := handlerPanics.Value() - before; got != 1 {
		t.Fatalf("handler panic counter moved by %d, want 1", got)
	}
	var panics []obs.Event
	for _, e := range obs.Events.Since(seq, 0) {
		if e.Kind == obs.EventHandlerPanic {
			panics = append(panics, e)
		}
	}
	if len(panics) != 1 || !strings.Contains(panics[0].Detail, "Crash.Boom") {
		t.Fatalf("handler panic events = %+v, want one naming Crash.Boom", panics)
	}
	for i := 0; i < 3; i++ {
		var sum float64
		if err := c.Call("Calc.Add", addArgs{A: float64(i), B: 1}, &sum); err != nil || sum != float64(i)+1 {
			t.Fatalf("call %d after the panic = %v, %v", i, sum, err)
		}
	}
	c2, err := Dial(addr, "tok")
	if err != nil {
		t.Fatalf("server stopped accepting after a handler panic: %v", err)
	}
	defer c2.Close()
	var sum float64
	if err := c2.Call("Calc.Add", addArgs{A: 2, B: 2}, &sum); err != nil || sum != 4 {
		t.Fatalf("fresh client after the panic = %v, %v", sum, err)
	}
}
