package client

import (
	"context"
	"errors"
	"strings"

	"mlds/internal/cdc"
	"mlds/internal/wire"
)

// Remote watches. A WATCH statement executes like any other; its reply
// carries a server-assigned watch id, and the server then pushes MsgEvent
// batches for that id until either side closes the watch. The client read
// loop routes pushes into a cdc pipe (an unboundedly-buffered Watcher), so
// the watch surfaces exactly the local API: a channel of cdc.Change ending
// with an OpReady-terminated load, then live changes.

// registerWatch creates the pipe for a server watch id. Runs on the read
// loop before the WATCH reply is forwarded, so no push can miss it.
func (c *Client) registerWatch(id uint64) {
	w := cdc.NewPipe(func() { c.unwatch(id) })
	c.mu.Lock()
	c.watches[id] = w
	c.mu.Unlock()
}

// takeWatch fetches the pipe registered for a watch id (it stays registered
// for event routing).
func (c *Client) takeWatch(id uint64) *cdc.Watcher {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.watches[id]
}

// unwatch runs when the consumer closes a watch pipe: forget it and tell
// the server, so the pusher stops. Fire-and-forget — the watch is already
// gone locally, and a server that beat us to it answers CodeNoWatch.
func (c *Client) unwatch(id uint64) {
	c.mu.Lock()
	_, known := c.watches[id]
	delete(c.watches, id)
	c.mu.Unlock()
	if !known {
		return
	}
	go func() {
		ctx, cancel := c.opCtx()
		defer cancel()
		_, _ = c.roundTrip(ctx, &wire.Msg{Kind: wire.MsgWatchClose, Watch: id})
	}()
}

// feedWatch routes one MsgEvent batch into its watch pipe.
func (c *Client) feedWatch(m *wire.Msg) {
	w := c.takeWatch(m.Watch)
	if w == nil {
		return
	}
	for _, e := range m.Events {
		w.Feed(cdc.ChangeFromEvent(e))
	}
}

// endWatch handles a server-initiated MsgWatchClose: the watch ended on the
// server (session closed, maintenance error). Buffered events still drain,
// then the pipe's channel closes with the server's reason as Err.
func (c *Client) endWatch(m *wire.Msg) {
	c.mu.Lock()
	w := c.watches[m.Watch]
	delete(c.watches, m.Watch)
	c.mu.Unlock()
	if w == nil {
		return
	}
	if m.Code != wire.CodeOK {
		w.Fail(&Error{Code: m.Code, Msg: m.Err})
	} else {
		w.Fail(nil)
	}
}

// WatchCtx opens a change subscription on the session's database, bounded
// by the context (which covers only the open round trip; the returned
// watcher lives until closed). The query is a single-file SQL SELECT,
// optionally prefixed with WATCH.
func (s *Session) WatchCtx(ctx context.Context, query string) (*cdc.Watcher, error) {
	text := query
	if !strings.HasPrefix(strings.ToUpper(strings.TrimSpace(text)), "WATCH") {
		text = "WATCH " + text
	}
	out, err := s.ExecuteCtx(ctx, text)
	if err != nil {
		return nil, err
	}
	if out.Watch == nil {
		return nil, errors.New("client: statement opened no watch")
	}
	return out.Watch, nil
}

// Watch opens a change subscription under the client's default timeout
// (core.Session form).
func (s *Session) Watch(query string) (*cdc.Watcher, error) {
	ctx, cancel := s.c.opCtx()
	defer cancel()
	return s.WatchCtx(ctx, query)
}
