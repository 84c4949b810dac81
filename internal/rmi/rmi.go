// Package rmi is the Remote Method Invocation layer of the reference
// implementation (the "thin black arrows" of the paper's Figure 2).
//
// The JAS client polls the AIDA manager over RMI, and engines push result
// snapshots the same way. The wire protocol is a binary request/response
// envelope over TCP whose argument and reply payloads ride a persistent
// per-connection gob stream (see envelope.go). Like the original — "all
// of the RMI connections are insecure, but ... none of the RMI objects
// could be instantiated without first creating a secure session with the
// Web Service" (§3.7) — every call carries a session token that the
// server validates before dispatch.
//
// Calls are pipelined: one connection carries any number of concurrent
// in-flight requests. Each request is tagged with a sequence number; the
// server dispatches every request to its own goroutine and writes
// responses as they complete (possibly out of order), and a per-client
// reader goroutine matches each response back to its caller. A slow call
// therefore never head-of-line-blocks a fast one on the same connection
// — the property that lets N polling clients share one socket. A handler
// that panics fails only its own call: the caller gets a RemoteError and
// the connection keeps serving.
//
// Objects are plain Go values; any exported method with the signature
//
//	func (o *T) Method(args A, reply *B) error
//
// is callable as "ObjectName.Method".
package rmi

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"

	"github.com/ipa-grid/ipa/internal/obs"
)

// writerPool recycles per-connection write buffers: buffering coalesces
// each frame's header and payload into one syscall instead of two.
var writerPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(nil, 8192) },
}

// TokenValidator authorizes a session token for an object/method pair.
// A nil validator on the server accepts everything (for tests only).
type TokenValidator func(token, object, method string) error

// ErrBadToken is the canonical rejection returned by validators.
var ErrBadToken = errors.New("rmi: invalid or expired session token")

// ErrClientClosed rejects calls on a closed client.
var ErrClientClosed = errors.New("rmi: client closed")

type methodInfo struct {
	fn        reflect.Value
	argType   reflect.Type // value type
	replyType reflect.Type // pointer element type
	hist      *obs.Histogram
}

type objectInfo struct {
	methods map[string]*methodInfo
}

// Server exports objects over a listener.
type Server struct {
	mu       sync.RWMutex
	objects  map[string]*objectInfo
	validate TokenValidator

	// faults, when set, injects failures into dispatch (see SetFaults).
	faults atomic.Pointer[faultState]

	lnMu     sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
}

// NewServer creates a server; validate may be nil to accept all tokens.
func NewServer(validate TokenValidator) *Server {
	return &Server{
		objects:  make(map[string]*objectInfo),
		validate: validate,
		conns:    make(map[net.Conn]struct{}),
	}
}

var errType = reflect.TypeOf((*error)(nil)).Elem()

// Register exports obj's suitable methods under name.
// It returns an error if no method matches the required signature.
func (s *Server) Register(name string, obj any) error {
	if name == "" || obj == nil {
		return errors.New("rmi: empty registration")
	}
	t := reflect.TypeOf(obj)
	info := &objectInfo{methods: make(map[string]*methodInfo)}
	v := reflect.ValueOf(obj)
	for i := 0; i < t.NumMethod(); i++ {
		m := t.Method(i)
		mt := m.Type
		// Signature: receiver, args, *reply → error.
		if mt.NumIn() != 3 || mt.NumOut() != 1 || mt.Out(0) != errType {
			continue
		}
		if mt.In(2).Kind() != reflect.Pointer {
			continue
		}
		info.methods[m.Name] = &methodInfo{
			fn:        v.Method(i),
			argType:   mt.In(1),
			replyType: mt.In(2).Elem(),
			hist:      serverCallHist(m.Name),
		}
	}
	if len(info.methods) == 0 {
		return fmt.Errorf("rmi: %q has no methods of form Method(args T, reply *U) error", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.objects[name]; dup {
		return fmt.Errorf("rmi: object %q already registered", name)
	}
	s.objects[name] = info
	return nil
}

// Unregister withdraws an object; in-flight calls complete, later calls
// fail with "no object". Used when a merge shard is drained out of a
// live fabric.
func (s *Server) Unregister(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, name)
}

// Serve accepts connections until the listener closes.
func (s *Server) Serve(ln net.Listener) {
	s.lnMu.Lock()
	s.listener = ln
	s.lnMu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.lnMu.Lock()
		if s.closed {
			s.lnMu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.lnMu.Unlock()
		go s.serveConn(conn)
	}
}

// ListenAndServe starts serving on addr and returns the bound address.
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(ln)
	return ln.Addr(), nil
}

// Close stops the listener and all connections.
func (s *Server) Close() {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	s.closed = true
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
}

// connWriter serializes response writes on one server connection: each
// response frame (header + payload) is written and flushed as one
// atomic unit, so concurrently-completing handlers interleave at frame
// granularity.
type connWriter struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer

	// Reusable header scratch plus the connection's persistent payload
	// gob stream (penc writes into pbuf, which ships length-prefixed
	// behind the binary header).
	scratch []byte
	pbuf    bytes.Buffer
	penc    *gob.Encoder
}

// fail closes the connection so the read loop (and the client) notice a
// half-written response instead of desynchronizing the stream. Caller
// holds w.mu.
func (w *connWriter) fail() { w.conn.Close() }

// maxInFlightPerConn bounds concurrently-dispatched requests on one
// connection: past it the read loop blocks, which TCP turns into
// backpressure on the client. Generous for pipelined pollers, but a
// runaway (or malicious) client can no longer grow server goroutines
// and queued replies without bound.
const maxInFlightPerConn = 256

func (s *Server) serveConn(conn net.Conn) {
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(conn)
	w := &connWriter{conn: conn, bw: bw}
	var handlers sync.WaitGroup
	defer func() {
		conn.Close()
		// Handlers may still be writing; only pool the buffer after the
		// last one is done with it.
		handlers.Wait()
		bw.Reset(nil) // drop the conn reference before pooling
		writerPool.Put(bw)
		s.lnMu.Lock()
		delete(s.conns, conn)
		s.lnMu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 8192)
	if err := serverHandshake(conn, br); err != nil {
		return
	}
	w.penc = gob.NewEncoder(&w.pbuf)
	serverConns.Inc()
	s.readRequests(br, w, &handlers)
}

// RemoteError is an error string that crossed the wire.
type RemoteError string

func (e RemoteError) Error() string { return string(e) }

// pendingCall is one in-flight request awaiting its response.
type pendingCall struct {
	reply any
	done  chan error // buffered(1); receives nil, RemoteError, or a transport error
}

// clientConn is one live connection's pipelining state. A new one is
// built on every (re)connect so stale responses can never be matched
// against a fresh connection's calls.
type clientConn struct {
	conn net.Conn

	// Request write state, guarded by wmu (one frame = header + payload
	// + flush): reusable header scratch and the persistent payload gob
	// stream.
	wmu  sync.Mutex
	bw   *bufio.Writer
	hdr  []byte
	pbuf bytes.Buffer
	penc *gob.Encoder

	br *bufio.Reader // owned by the read loop

	pmu     sync.Mutex
	seq     uint64
	pending map[uint64]*pendingCall
	broken  error
}

// register allocates a sequence number for pc, or reports the
// connection broken.
func (cc *clientConn) register(pc *pendingCall) (uint64, error) {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	if cc.broken != nil {
		return 0, cc.broken
	}
	cc.seq++
	cc.pending[cc.seq] = pc
	return cc.seq, nil
}

// take removes and returns the pending call for seq (nil if none).
func (cc *clientConn) take(seq uint64) *pendingCall {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	pc := cc.pending[seq]
	delete(cc.pending, seq)
	return pc
}

// fail marks the connection broken, closes it, and delivers err to
// every caller still waiting. Safe to call from both the read loop and
// writers; each pending call is delivered exactly once because removal
// from the map is what grants the right to send on done.
func (cc *clientConn) fail(err error) {
	cc.pmu.Lock()
	if cc.broken == nil {
		cc.broken = err
	}
	stranded := cc.pending
	cc.pending = make(map[uint64]*pendingCall)
	cc.pmu.Unlock()
	cc.conn.Close()
	for _, pc := range stranded {
		pc.done <- err
	}
}

// Client is an RMI client. It is safe for concurrent use: calls are
// pipelined over one connection — each request is sequence-tagged, a
// reader goroutine matches responses (which the server may send out of
// order) back to their callers, so concurrent Calls never wait on each
// other, only on their own replies.
type Client struct {
	mu     sync.Mutex // guards cc, token, closed
	cc     *clientConn
	token  string
	addr   string
	closed bool

	// retry bounds dial attempts (see WithRetry); jrand is the jitter
	// stream, lazily seeded from the address.
	retry RetryPolicy
	jrand uint64
}

// Option configures a client connection at Dial time.
type Option func(*Client)

// Dial connects to an RMI server. token rides along on every call.
func Dial(addr, token string, opts ...Option) (*Client, error) {
	c := &Client{addr: addr, token: token}
	for _, opt := range opts {
		opt(c)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.connLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// connLocked returns the live connection, dialing a fresh one if
// needed (honoring the client's retry policy). Caller holds c.mu.
func (c *Client) connLocked() (*clientConn, error) {
	return c.connRetryLocked(nil)
}

// adoptConnLocked runs the envelope handshake on a freshly dialed conn,
// wraps it as the client's live connection and starts its read loop. A
// peer that does not acknowledge the handshake is a dial error. Caller
// holds c.mu.
func (c *Client) adoptConnLocked(conn net.Conn) (*clientConn, error) {
	if err := clientHandshake(conn); err != nil {
		conn.Close()
		return nil, fmt.Errorf("rmi: envelope handshake: %w", err)
	}
	cc := &clientConn{
		conn:    conn,
		bw:      bufio.NewWriterSize(conn, 8192),
		br:      bufio.NewReaderSize(conn, 8192),
		pending: make(map[uint64]*pendingCall),
	}
	cc.penc = gob.NewEncoder(&cc.pbuf)
	c.cc = cc
	clientConns.Inc()
	go c.readLoop(cc)
	return cc, nil
}

// drop forgets cc if it is still the client's current connection, so
// the next Call dials afresh.
func (c *Client) drop(cc *clientConn) {
	c.mu.Lock()
	if c.cc == cc {
		c.cc = nil
	}
	c.mu.Unlock()
}

// Close shuts the connection; in-flight calls fail with ErrClientClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	cc := c.cc
	c.cc = nil
	c.mu.Unlock()
	if cc != nil {
		cc.fail(ErrClientClosed)
	}
	return nil
}

// SetToken replaces the session token (after session renewal).
func (c *Client) SetToken(token string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.token = token
}

// Call invokes object.method with args, decoding the result into reply
// (a pointer). Remote failures come back as RemoteError. Safe for any
// number of concurrent callers; see the Client comment.
func (c *Client) Call(objectDotMethod string, args any, reply any) error {
	obj, method, ok := splitTarget(objectDotMethod)
	if !ok {
		return fmt.Errorf("rmi: bad call target %q (want Object.Method)", objectDotMethod)
	}
	c.mu.Lock()
	cc, err := c.connLocked()
	token := c.token
	c.mu.Unlock()
	if err != nil {
		return err
	}
	t0 := obs.Now()
	tc := traceOf(args)
	pc := &pendingCall{reply: reply, done: make(chan error, 1)}
	seq, err := cc.register(pc)
	if err != nil {
		return err
	}
	cc.wmu.Lock()
	err = cc.writeRequest(seq, obj, method, token, tc, args)
	cc.wmu.Unlock()
	if err != nil {
		err = fmt.Errorf("rmi: sending request: %w", err)
		c.drop(cc)
		cc.fail(err)
		// fail delivered err to our own pending call too; drain it so
		// the channel logic stays single-shot.
		<-pc.done
		return err
	}
	err = <-pc.done
	if !t0.IsZero() {
		callHist(objectDotMethod, method).ObserveSince(t0)
	}
	return err
}

func splitTarget(s string) (obj, method string, ok bool) {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '.' {
			return s[:i], s[i+1:], s[:i] != "" && s[i+1:] != ""
		}
	}
	return "", "", false
}
