// Package client is the remote, context-first MLDS client: it speaks the
// framing-v2 client protocol (internal/wire) to a serving-tier front end
// (internal/server, cmd/mldsserver) and hands back sessions that implement
// core.Session — the same interface local sessions satisfy, so code written
// against an in-process system moves to the network unchanged.
//
// One Client multiplexes every session it opens over a single TCP
// connection: requests carry a session id and a connection-unique sequence
// number, replies interleave in completion order, and a background reader
// routes each reply to its waiter. All blocking calls take a
// context.Context; Session.Execute (the core.Session form, which has no
// context) applies the dial option WithTimeout.
package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mlds/internal/cdc"
	"mlds/internal/wire"
)

// Option configures a Client at dial time.
type Option func(*Client)

// WithTimeout sets the per-statement timeout used by the context-free
// core.Session methods (Execute, Begin, Commit, …). Default 30s; 0 means no
// timeout.
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// DBInfo describes one database in the server's catalog.
type DBInfo = wire.DBInfo

// Client is one multiplexed connection to an MLDS server.
type Client struct {
	c       net.Conn
	br      *bufio.Reader
	timeout time.Duration

	// base is the connection's lifetime context: every context the client
	// builds itself (the context-free core.Session methods) derives from it,
	// so Close cancels in-flight Begin/Commit/Execute waits instead of
	// leaving them to run out their timeouts.
	base   context.Context
	cancel context.CancelFunc

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	mu      sync.Mutex
	seq     uint64
	nextSID uint32
	pending map[uint64]chan *wire.Msg
	watches map[uint64]*cdc.Watcher // live watch pipes, keyed by server watch id
	closed  bool
	err     error // terminal connection error, set once

	draining atomic.Bool
}

// Dial connects and performs the protocol handshake. The context bounds the
// whole dial, connection included.
func Dial(ctx context.Context, addr string, opts ...Option) (*Client, error) {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{
		c:       nc,
		br:      bufio.NewReader(nc),
		bw:      bufio.NewWriter(nc),
		timeout: 30 * time.Second,
		pending: make(map[uint64]chan *wire.Msg),
		watches: make(map[uint64]*cdc.Watcher),
	}
	// The dial context bounds the dial only; the connection's own lifetime
	// context starts fresh from it (cancelled by Close, not by the dialer's
	// deadline expiring later).
	c.base, c.cancel = context.WithCancel(context.WithoutCancel(ctx))
	for _, o := range opts {
		o(c)
	}
	go c.readLoop()
	if _, err := c.roundTrip(ctx, &wire.Msg{Kind: wire.MsgHello}); err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	return c, nil
}

// readLoop routes every reply to its waiter until the connection dies, then
// fails all waiters with the terminal error. Server pushes (MsgEvent,
// server-initiated MsgWatchClose) never park the loop: watch pipes buffer
// without bound, so one slow watch consumer cannot stall the other sessions
// multiplexed on the connection.
func (c *Client) readLoop() {
	for {
		m, err := wire.ReadMsg(c.br, wire.DefaultMaxFrame)
		if err != nil {
			c.fail(err)
			return
		}
		if m.Flags&wire.DrainingFlag != 0 {
			c.draining.Store(true)
		}
		switch m.Kind {
		case wire.MsgEvent:
			c.feedWatch(m)
			continue
		case wire.MsgWatchClose:
			c.endWatch(m)
			continue
		}
		if m.Kind == wire.MsgReply && m.Watch != 0 {
			// The reply to a WATCH statement: register its pipe before the
			// waiter sees the reply, so pushed events arriving immediately
			// after have somewhere to go.
			c.registerWatch(m.Watch)
		}
		c.mu.Lock()
		ch := c.pending[m.Seq]
		delete(c.pending, m.Seq)
		c.mu.Unlock()
		if ch != nil {
			ch <- m
		}
	}
}

// fail marks the connection dead, wakes every waiter and fails every watch.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.pending
	c.pending = make(map[uint64]chan *wire.Msg)
	watches := c.watches
	c.watches = make(map[uint64]*cdc.Watcher)
	c.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
	for _, w := range watches {
		w.Fail(err)
	}
}

// roundTrip sends one request and waits for its reply, the context, or
// connection death. A request whose context is already done is never sent,
// so it never executes on the server.
func (c *Client) roundTrip(ctx context.Context, m *wire.Msg) (*wire.Msg, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ch := make(chan *wire.Msg, 1)
	c.mu.Lock()
	if c.closed || c.err != nil {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = errors.New("client: connection closed")
		}
		return nil, err
	}
	c.seq++
	m.Seq = c.seq
	c.pending[m.Seq] = ch
	c.mu.Unlock()

	c.wmu.Lock()
	err := wire.WriteMsg(c.bw, m)
	if err == nil {
		err = c.bw.Flush()
	}
	c.wmu.Unlock()
	if err != nil {
		// A failed write may have left a partial frame on the wire: the
		// stream is desynchronized, so the whole connection is dead — fail
		// every waiter now rather than letting them hang to their timeouts.
		c.mu.Lock()
		delete(c.pending, m.Seq)
		c.mu.Unlock()
		c.fail(err)
		_ = c.c.Close()
		return nil, err
	}

	select {
	case reply, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.err
			c.mu.Unlock()
			if err == nil {
				err = errors.New("client: connection closed")
			}
			return nil, err
		}
		return reply, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, m.Seq)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// withTimeout applies the client's default statement timeout for the
// context-free core.Session methods.
func (c *Client) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, c.timeout)
}

// opCtx builds the context for a context-free core.Session call: the
// client's lifetime context (so Close cancels the wait) bounded by the
// default statement timeout.
func (c *Client) opCtx() (context.Context, context.CancelFunc) {
	return c.withTimeout(c.base)
}

// Ping round-trips the connection.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.roundTrip(ctx, &wire.Msg{Kind: wire.MsgPing})
	return err
}

// Databases lists the server's catalog.
func (c *Client) Databases(ctx context.Context) ([]DBInfo, error) {
	reply, err := c.roundTrip(ctx, &wire.Msg{Kind: wire.MsgListDBs})
	if err != nil {
		return nil, err
	}
	if reply.Code != wire.CodeOK {
		return nil, remoteError(reply)
	}
	return reply.DBs, nil
}

// Draining reports whether any reply has carried the server's draining
// flag: finish open transactions and redial elsewhere.
func (c *Client) Draining() bool { return c.draining.Load() }

// Close tears down the connection; server-side sessions are closed and
// their open transactions rolled back.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	c.cancel()
	err := c.c.Close()
	c.fail(errors.New("client: connection closed"))
	return err
}
