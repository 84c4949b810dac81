// Package wsrf is the Web-Service container of the manager node — the
// stand-in for the Globus Toolkit 4.0 WSRF container that hosts the
// paper's control, session, catalog, locator and splitter services (§3).
//
// It provides XML envelopes over HTTP(S) with operation dispatch, Grid
// authentication (mutual TLS with proxy chains via the gsi package),
// per-operation authorization hooks, and the WS-Resource pattern: "creating
// an instance of a Web Service means creation of an instance of Web Service
// 'resources' that can be accessed and operated by this Web Service"
// (§3.2) — stateful resources addressed by endpoint references with
// scheduled termination times.
package wsrf

import (
	"bytes"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/ipa-grid/ipa/internal/gsi"
)

// envelope is the wire frame for requests and responses.
type envelope struct {
	XMLName  xml.Name `xml:"envelope"`
	Action   string   `xml:"action"`
	Resource string   `xml:"resource,omitempty"`
	Body     inner    `xml:"body"`
}

type inner struct {
	Data []byte `xml:",innerxml"`
}

// Fault is a remote operation failure.
type Fault struct {
	XMLName xml.Name `xml:"fault"`
	Code    string   `xml:"code"`
	Message string   `xml:"message"`
}

// Error implements error.
func (f *Fault) Error() string { return fmt.Sprintf("wsrf: fault %s: %s", f.Code, f.Message) }

// Fault codes used by the framework services.
const (
	FaultDenied    = "AuthorizationDenied"
	FaultNoSuchOp  = "NoSuchOperation"
	FaultNoSuchRes = "NoSuchResource"
	FaultBadInput  = "BadInput"
	FaultInternal  = "InternalError"
)

// Faultf builds a fault error.
func Faultf(code, format string, args ...any) *Fault {
	return &Fault{Code: code, Message: fmt.Sprintf(format, args...)}
}

// OpContext carries per-call state into operation handlers.
type OpContext struct {
	// Identity is the authenticated Grid identity (nil on plain HTTP).
	Identity *gsi.Identity
	// ResourceKey addresses a WS-Resource instance ("" for static ops).
	ResourceKey string
}

// Handler implements one operation. decode unmarshals the request body
// into a caller-supplied struct; the returned value is marshaled as the
// response body.
type Handler func(ctx *OpContext, decode func(any) error) (any, error)

// Authorizer vets an authenticated identity for a service operation before
// the handler runs. Returning an error produces an authorization fault.
type Authorizer func(id *gsi.Identity, action string) error

// Container hosts services.
type Container struct {
	mu       sync.RWMutex
	handlers map[string]Handler
	authz    Authorizer
	roots    *x509.CertPool

	server   *http.Server
	listener net.Listener
	addr     string
	secure   bool
}

// NewContainer creates an empty container; authz may be nil (allow all).
func NewContainer(authz Authorizer) *Container {
	return &Container{handlers: make(map[string]Handler), authz: authz}
}

// Register installs a handler for "Service.Operation".
func (c *Container) Register(action string, h Handler) {
	if !strings.Contains(action, ".") || h == nil {
		panic(fmt.Sprintf("wsrf: bad registration %q", action))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.handlers[action]; dup {
		panic(fmt.Sprintf("wsrf: duplicate action %q", action))
	}
	c.handlers[action] = h
}

// Addr returns the bound listen address (after ListenHTTP/ListenTLS).
func (c *Container) Addr() string { return c.addr }

// Secure reports whether the container serves TLS.
func (c *Container) Secure() bool { return c.secure }

// ListenHTTP serves without transport security (tests, trusted hosts).
func (c *Container) ListenHTTP(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return c.serve(ln, false, nil)
}

// ListenTLS serves with Grid mutual TLS: clients must present a proxy or
// end-entity chain rooted in the given pool.
func (c *Container) ListenTLS(addr string, host *gsi.Credential, roots *x509.CertPool) error {
	cfg := gsi.ServerTLSConfig(host, roots)
	ln, err := tls.Listen("tcp", addr, cfg)
	if err != nil {
		return err
	}
	c.roots = roots
	return c.serve(ln, true, roots)
}

func (c *Container) serve(ln net.Listener, secure bool, roots *x509.CertPool) error {
	c.listener = ln
	c.addr = ln.Addr().String()
	c.secure = secure
	mux := http.NewServeMux()
	mux.HandleFunc("/wsrf", c.handleHTTP)
	c.server = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go c.server.Serve(ln)
	return nil
}

// Close stops serving.
func (c *Container) Close() error {
	if c.server != nil {
		return c.server.Close()
	}
	return nil
}

func (c *Container) handleHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "wsrf: POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		http.Error(w, "wsrf: reading request", http.StatusBadRequest)
		return
	}
	var env envelope
	if err := xml.Unmarshal(body, &env); err != nil {
		writeFault(w, Faultf(FaultBadInput, "malformed envelope: %v", err))
		return
	}
	ctx := &OpContext{ResourceKey: env.Resource}
	if r.TLS != nil && c.roots != nil {
		id, err := gsi.PeerIdentity(*r.TLS, c.roots)
		if err != nil {
			writeFault(w, Faultf(FaultDenied, "authentication: %v", err))
			return
		}
		ctx.Identity = id
	}
	c.mu.RLock()
	h := c.handlers[env.Action]
	authz := c.authz
	c.mu.RUnlock()
	if h == nil {
		writeFault(w, Faultf(FaultNoSuchOp, "no operation %q", env.Action))
		return
	}
	if authz != nil {
		if err := authz(ctx.Identity, env.Action); err != nil {
			writeFault(w, Faultf(FaultDenied, "%v", err))
			return
		}
	}
	decode := func(v any) error {
		if len(bytes.TrimSpace(env.Body.Data)) == 0 {
			return nil // empty request body is fine for niladic ops
		}
		return xml.Unmarshal(env.Body.Data, v)
	}
	result, err := h(ctx, decode)
	if err != nil {
		var f *Fault
		if errors.As(err, &f) {
			writeFault(w, f)
		} else {
			writeFault(w, Faultf(FaultInternal, "%v", err))
		}
		return
	}
	writeEnvelope(w, env.Action+"Response", "", result)
}

func writeFault(w http.ResponseWriter, f *Fault) {
	writeEnvelope(w, "Fault", "", f)
}

func writeEnvelope(w http.ResponseWriter, action, resource string, body any) {
	inner, err := marshalBody(body)
	if err != nil {
		http.Error(w, "wsrf: encoding response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	env := envelope{Action: action, Resource: resource, Body: inner}
	out, err := xml.Marshal(env)
	if err != nil {
		http.Error(w, "wsrf: encoding envelope", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	w.Write([]byte(xml.Header))
	w.Write(out)
}

func marshalBody(v any) (inner, error) {
	if v == nil {
		return inner{}, nil
	}
	b, err := xml.Marshal(v)
	if err != nil {
		return inner{}, err
	}
	return inner{Data: b}, nil
}

// EPR is an endpoint reference: where a service lives plus which resource
// instance a call addresses (the "pointer" the control service returns to
// the client at session creation, §3.2).
type EPR struct {
	XMLName  xml.Name `xml:"epr"`
	Address  string   `xml:"address"`  // host:port of the container
	Service  string   `xml:"service"`  // service name
	Resource string   `xml:"resource"` // resource key
	Secure   bool     `xml:"secure"`
}

// Client calls operations on a remote container.
type Client struct {
	base string
	http *http.Client
}

// NewClient targets a container at addr. tlsCfg nil means plain HTTP.
func NewClient(addr string, tlsCfg *tls.Config) *Client {
	scheme := "http"
	transport := &http.Transport{}
	if tlsCfg != nil {
		scheme = "https"
		transport.TLSClientConfig = tlsCfg
	}
	return &Client{
		base: scheme + "://" + addr + "/wsrf",
		http: &http.Client{Transport: transport, Timeout: 60 * time.Second},
	}
}

// CloseIdleConnections closes the client's idle keep-alive connections.
// Later calls dial afresh.
func (c *Client) CloseIdleConnections() { c.http.CloseIdleConnections() }

// Call invokes Service.Operation with an optional resource key. req may be
// nil; resp may be nil to ignore the body. Remote faults return *Fault.
func (c *Client) Call(action, resourceKey string, req, resp any) error {
	body, err := marshalBody(req)
	if err != nil {
		return fmt.Errorf("wsrf: encoding request: %w", err)
	}
	env := envelope{Action: action, Resource: resourceKey, Body: body}
	payload, err := xml.Marshal(env)
	if err != nil {
		return err
	}
	httpResp, err := c.http.Post(c.base, "text/xml", bytes.NewReader(payload))
	if err != nil {
		return fmt.Errorf("wsrf: calling %s: %w", action, err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(httpResp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("wsrf: reading response: %w", err)
	}
	if httpResp.StatusCode != http.StatusOK {
		return fmt.Errorf("wsrf: %s: HTTP %d: %s", action, httpResp.StatusCode, strings.TrimSpace(string(raw)))
	}
	var renv envelope
	if err := xml.Unmarshal(raw, &renv); err != nil {
		return fmt.Errorf("wsrf: malformed response envelope: %w", err)
	}
	if renv.Action == "Fault" {
		var f Fault
		if err := xml.Unmarshal(renv.Body.Data, &f); err != nil {
			return Faultf(FaultInternal, "undecodable fault")
		}
		return &f
	}
	if resp != nil {
		if err := xml.Unmarshal(renv.Body.Data, resp); err != nil {
			return fmt.Errorf("wsrf: decoding %s response: %w", action, err)
		}
	}
	return nil
}

// Resource is one stateful WS-Resource instance.
type Resource struct {
	Key         string
	Value       any
	Created     time.Time
	Termination time.Time // zero = no scheduled destruction
}

// Expired reports whether the resource is past its termination time.
func (r *Resource) Expired(now time.Time) bool {
	return !r.Termination.IsZero() && now.After(r.Termination)
}

// ResourceHome manages the resource instances of one service (the WSRF
// "resource home"). It is safe for concurrent use.
type ResourceHome struct {
	mu        sync.RWMutex
	resources map[string]*Resource
	onDestroy func(*Resource)
}

// NewResourceHome creates a home; onDestroy (optional) runs for every
// destroyed or expired resource (cleanup of engines, files, …).
func NewResourceHome(onDestroy func(*Resource)) *ResourceHome {
	return &ResourceHome{resources: make(map[string]*Resource), onDestroy: onDestroy}
}

// NewKey generates a fresh unguessable resource key.
func NewKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("wsrf: no entropy: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

// Create registers a new resource with a lifetime (0 = immortal).
func (h *ResourceHome) Create(value any, lifetime time.Duration) *Resource {
	r := &Resource{Key: NewKey(), Value: value, Created: time.Now()}
	if lifetime > 0 {
		r.Termination = time.Now().Add(lifetime)
	}
	h.mu.Lock()
	h.resources[r.Key] = r
	h.mu.Unlock()
	return r
}

// Get fetches a live resource; expired resources are treated as missing.
func (h *ResourceHome) Get(key string) (*Resource, error) {
	h.mu.RLock()
	r := h.resources[key]
	h.mu.RUnlock()
	if r == nil || r.Expired(time.Now()) {
		return nil, Faultf(FaultNoSuchRes, "no resource %q", key)
	}
	return r, nil
}

// SetTermination reschedules destruction (WS-ResourceLifetime).
func (h *ResourceHome) SetTermination(key string, t time.Time) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.resources[key]
	if r == nil {
		return Faultf(FaultNoSuchRes, "no resource %q", key)
	}
	r.Termination = t
	return nil
}

// Destroy removes a resource immediately.
func (h *ResourceHome) Destroy(key string) error {
	h.mu.Lock()
	r := h.resources[key]
	delete(h.resources, key)
	h.mu.Unlock()
	if r == nil {
		return Faultf(FaultNoSuchRes, "no resource %q", key)
	}
	if h.onDestroy != nil {
		h.onDestroy(r)
	}
	return nil
}

// Sweep destroys expired resources and reports how many were removed.
func (h *ResourceHome) Sweep(now time.Time) int {
	h.mu.Lock()
	var expired []*Resource
	for k, r := range h.resources {
		if r.Expired(now) {
			expired = append(expired, r)
			delete(h.resources, k)
		}
	}
	h.mu.Unlock()
	for _, r := range expired {
		if h.onDestroy != nil {
			h.onDestroy(r)
		}
	}
	return len(expired)
}

// StartSweeper runs Sweep periodically until stop is closed.
func (h *ResourceHome) StartSweeper(interval time.Duration, stop <-chan struct{}) {
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				h.Sweep(time.Now())
			case <-stop:
				return
			}
		}
	}()
}

// Len returns the number of live resources.
func (h *ResourceHome) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.resources)
}
