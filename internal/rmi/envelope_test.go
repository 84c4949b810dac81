// Envelope coverage: the binary header handshaken at dial must be
// transparent to callers — same results, same error surface, same
// pipelining — and a peer that does not speak it must fail the dial
// (client side) or be dropped (server side) instead of being served.
package rmi

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestV2IsTheNegotiatedDefault(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sum float64
	if err := c.Call("Calc.Add", addArgs{A: 2, B: 3}, &sum); err != nil || sum != 5 {
		t.Fatalf("Add over the envelope = %v, %v", sum, err)
	}

	// A peer that opens with anything but the magic is dropped unanswered.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GOB!")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	if n, err := conn.Read(b[:]); n != 0 || err != io.EOF {
		t.Fatalf("server answered a non-envelope peer: n=%d err=%v", n, err)
	}
}

func TestUnacknowledgedHandshakeIsDialError(t *testing.T) {
	// A listener that accepts but never acknowledges the magic.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				io.Copy(io.Discard, conn)
				conn.Close()
			}()
		}
	}()
	prev := handshakeTimeout
	handshakeTimeout = 100 * time.Millisecond
	defer func() { handshakeTimeout = prev }()
	if c, err := Dial(ln.Addr().String(), "tok"); err == nil {
		c.Close()
		t.Fatal("dial succeeded against a peer that never acknowledged the envelope")
	} else if !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("dial error = %v, want a handshake failure", err)
	}
}

// TestV2ErrorSurfaceMatchesGob pins the error texts callers match on
// (the ones the original gob envelope produced) and the connection's
// health after each rejection.
func TestV2ErrorSurfaceMatchesGob(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var out string
	err = c.Call("Calc.Fail", struct{}{}, &out)
	var re RemoteError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("Fail error = %v, want RemoteError with message", err)
	}
	if err := c.Call("NoSuch.Method", struct{}{}, &out); err == nil || !strings.Contains(err.Error(), "no object") {
		t.Fatalf("unknown object error = %v", err)
	}
	if err := c.Call("Calc.NoSuch", struct{}{}, &out); err == nil || !strings.Contains(err.Error(), "no method") {
		t.Fatalf("unknown method error = %v", err)
	}
	// The connection must stay usable after every rejection — the
	// persistent payload codec may not desync.
	var sum float64
	if err := c.Call("Calc.Add", addArgs{A: 1, B: 2}, &sum); err != nil || sum != 3 {
		t.Fatalf("Add after rejections = %v, %v", sum, err)
	}
}

func TestV2ConcurrentPipelinedCalls(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const callers, calls = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				var sum float64
				a, b := float64(g), float64(i)
				if err := c.Call("Calc.Add", addArgs{A: a, B: b}, &sum); err != nil {
					errs <- err
					return
				}
				if sum != a+b {
					errs <- fmt.Errorf("caller %d call %d: reply %v, want %v", g, i, sum, a+b)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestV2ComplexPayloadRoundTrip(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr, "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := echoArgs{Msg: strings.Repeat("x", 4096), Nums: []int{1, 2, 3}, Map: map[string]string{"k": "v"}}
	var out echoArgs
	if err := c.Call("Echo.Echo", in, &out); err != nil {
		t.Fatal(err)
	}
	if out.Msg != in.Msg || len(out.Nums) != 3 || out.Map["k"] != "v" {
		t.Fatalf("echo mangled the payload: %+v", out)
	}
}
