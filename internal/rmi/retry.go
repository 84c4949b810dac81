// Dial retry: bounded exponential backoff with deterministic jitter,
// replacing the one-shot connect on paths that must survive transient
// faults — a replica shard restarting, a manager briefly partitioned.
// Off by default (Attempts <= 1 keeps the old single-try behavior);
// opted into per client via WithRetry.

package rmi

import (
	"context"
	"fmt"
	"net"
	"time"
)

// RetryPolicy bounds reconnect attempts for one client.
type RetryPolicy struct {
	// Attempts is the total connect attempts per (re)dial (<=1 = one
	// try, no retry — the default).
	Attempts int
	// Base is the first backoff delay (default 50ms); each further
	// attempt doubles it.
	Base time.Duration
	// Max caps the backoff (default 2s).
	Max time.Duration
}

// WithRetry makes the client retry failed dials — both the initial
// connect and every transparent re-dial after a broken connection —
// with exponential backoff and ±20% jitter (seeded from the address,
// so a fleet of clients retrying the same restarted shard does not
// reconnect in lockstep).
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// DialContext is Dial with cancellation: the context bounds the initial
// connect, including its retry backoff waits.
func DialContext(ctx context.Context, addr, token string, opts ...Option) (*Client, error) {
	c := &Client{addr: addr, token: token}
	for _, opt := range opts {
		opt(c)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.connRetryLocked(ctx); err != nil {
		return nil, err
	}
	return c, nil
}

// connRetryLocked dials with the client's retry policy. Caller holds
// c.mu; the lock is released around backoff waits so Close (and other
// callers) are never blocked behind a retrying dial — after each wait
// the client state is re-checked, and a connection another caller
// established meanwhile is reused.
func (c *Client) connRetryLocked(ctx context.Context) (*clientConn, error) {
	if c.closed {
		return nil, ErrClientClosed
	}
	if c.cc != nil {
		return c.cc, nil
	}
	attempts := c.retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	base := c.retry.Base
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	maxd := c.retry.Max
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			dialRetries.Inc()
			delay := base << uint(attempt-1)
			if delay > maxd {
				delay = maxd
			}
			delay = c.jitterLocked(delay)
			c.mu.Unlock()
			err := sleepCtx(ctx, delay)
			c.mu.Lock()
			if err != nil {
				return nil, err
			}
			if c.closed {
				return nil, ErrClientClosed
			}
			if c.cc != nil {
				return c.cc, nil
			}
		}
		var conn net.Conn
		var err error
		if ctx != nil {
			var d net.Dialer
			conn, err = d.DialContext(ctx, "tcp", c.addr)
		} else {
			conn, err = net.Dial("tcp", c.addr)
		}
		if err == nil {
			cc, aerr := c.adoptConnLocked(conn)
			if aerr == nil {
				return cc, nil
			}
			// An unacknowledged handshake is a dial failure; retry it
			// like any other.
			err = aerr
		}
		lastErr = err
		if ctx != nil && ctx.Err() != nil {
			break
		}
	}
	return nil, fmt.Errorf("rmi: dialing %s: %w", c.addr, lastErr)
}

// jitterLocked draws delay ±20% from a per-client xorshift stream
// seeded by the address. Caller holds c.mu.
func (c *Client) jitterLocked(delay time.Duration) time.Duration {
	if c.jrand == 0 {
		h := uint64(14695981039346656037) // FNV-1a offset basis
		for i := 0; i < len(c.addr); i++ {
			h = (h ^ uint64(c.addr[i])) * 1099511628211
		}
		c.jrand = h | 1
	}
	c.jrand ^= c.jrand << 13
	c.jrand ^= c.jrand >> 7
	c.jrand ^= c.jrand << 17
	frac := float64(c.jrand%1024)/1024*0.4 - 0.2
	return time.Duration((1 + frac) * float64(delay))
}

// sleepCtx sleeps, cut short by ctx (nil ctx = plain sleep).
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
