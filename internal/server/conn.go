package server

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"mlds/internal/core"
	"mlds/internal/wire"
)

// srvConn is one client connection: a reader loop that dispatches messages,
// a write mutex that serializes interleaved replies from the session
// workers, and the connection's live sessions.
type srvConn struct {
	srv *Server
	c   net.Conn
	br  *bufio.Reader

	wmu sync.Mutex // guards bw across session workers
	bw  *bufio.Writer

	mu       sync.Mutex
	sessions map[uint32]*session
	watches  map[uint64]*srvWatch // live watches, keyed by conn-unique id
	watchSeq uint64
	sessWG   sync.WaitGroup
	pushWG   sync.WaitGroup // watch pushers and async watch teardowns
}

func newSrvConn(s *Server, nc net.Conn) *srvConn {
	return &srvConn{
		srv:      s,
		c:        nc,
		br:       bufio.NewReader(nc),
		bw:       bufio.NewWriter(nc),
		sessions: make(map[uint32]*session),
		watches:  make(map[uint64]*srvWatch),
	}
}

// send writes one framed reply, stamping the draining flag on every reply
// while the server drains so clients learn to redial no matter which message
// they were waiting on. Replies from concurrent session workers interleave
// here in completion order; Seq matches them back to requests. A reply
// larger than the frame limit — which the client refuses to read, failing
// every session on the connection — goes out as a CodeResultTooLarge
// refusal instead, failing only its own statement.
func (c *srvConn) send(m *wire.Msg) {
	m.Flags |= c.drainFlag()
	payload := wire.EncodeMsg(m)
	if limit := c.srv.maxFrame(); len(payload) > limit && m.Kind == wire.MsgReply {
		c.srv.mRefused.Inc()
		r := refusal(m, wire.CodeResultTooLarge,
			fmt.Sprintf("server: reply of %d bytes exceeds the %d-byte frame limit", len(payload), limit))
		r.Flags = m.Flags
		payload = wire.EncodeMsg(r)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := wire.WriteFrame(c.bw, payload); err != nil {
		return
	}
	_ = c.bw.Flush()
}

func (c *srvConn) serve() {
	defer c.srv.wg.Done()
	defer c.teardown()
	for {
		m, err := wire.ReadMsg(c.br, c.srv.maxFrame())
		if err != nil {
			return
		}
		c.srv.mRequests.Inc()
		switch m.Kind {
		case wire.MsgHello:
			c.send(&wire.Msg{Kind: wire.MsgHello, Seq: m.Seq})
		case wire.MsgPing:
			c.send(&wire.Msg{Kind: wire.MsgReply, Seq: m.Seq})
		case wire.MsgListDBs:
			reply := &wire.Msg{Kind: wire.MsgReply, Seq: m.Seq}
			for _, db := range c.srv.sys.Databases() {
				reply.DBs = append(reply.DBs, wire.DBInfo{
					Name: db.Name, Model: db.Model.String(),
					Backends: db.Backends, Records: db.Records,
				})
			}
			c.send(reply)
		case wire.MsgOpen:
			c.open(m)
		case wire.MsgExec:
			c.exec(m)
		case wire.MsgClose:
			c.closeSession(m)
		case wire.MsgWatchClose:
			c.watchClose(m)
		default:
			c.send(refusal(m, wire.CodeProto, fmt.Sprintf("%v %d", errUnknownKind, m.Kind)))
		}
	}
}

func (c *srvConn) drainFlag() uint32 {
	if c.srv.draining.Load() {
		return wire.DrainingFlag
	}
	return 0
}

func (c *srvConn) open(m *wire.Msg) {
	if c.srv.draining.Load() {
		c.srv.mRefused.Inc()
		c.send(refusal(m, wire.CodeDraining, "server draining; redial"))
		return
	}
	c.mu.Lock()
	if _, dup := c.sessions[m.SID]; dup {
		c.mu.Unlock()
		c.send(refusal(m, wire.CodeProto, fmt.Sprintf("server: session %d already open", m.SID)))
		return
	}
	n := len(c.sessions)
	c.mu.Unlock()
	if !c.srv.admitSession(n, m.DB) {
		c.srv.mRefused.Inc()
		c.send(refusal(m, wire.CodeSessionLimit, "server: session limit reached"))
		return
	}
	var opts []core.SessionOption
	if m.Flags&wire.SnapFlag != 0 {
		opts = append(opts, core.SnapshotSession())
	}
	cs, err := c.srv.sys.Open(m.DB, m.Language, opts...)
	if err != nil {
		c.srv.releaseSession(m.DB)
		c.send(refusal(m, core.CodeOf(err), err.Error()))
		return
	}
	sess := &session{
		conn:   c,
		sid:    m.SID,
		db:     m.DB,
		sess:   cs,
		queue:  make(chan *wire.Msg, c.srv.cfg.SessionQueue),
		kill:   make(chan struct{}),
		tokens: float64(c.srv.cfg.RateBurst),
		last:   time.Now(),
	}
	c.mu.Lock()
	c.sessions[m.SID] = sess
	c.mu.Unlock()
	c.srv.mSessions.Inc()
	c.srv.mSessionTotal.Inc()
	c.sessWG.Add(1)
	go sess.worker()
	c.send(&wire.Msg{Kind: wire.MsgReply, SID: m.SID, Seq: m.Seq,
		Language: cs.Language()})
}

func (c *srvConn) lookup(sid uint32) *session {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sessions[sid]
}

func (c *srvConn) exec(m *wire.Msg) {
	sess := c.lookup(m.SID)
	if sess == nil {
		c.send(refusal(m, wire.CodeNoSession, fmt.Sprintf("server: no session %d", m.SID)))
		return
	}
	// Draining: implicit statements are refused so the server quiesces, but
	// a session inside an explicit transaction keeps going — aborting it
	// here would waste its finished work when a clean COMMIT is imminent.
	if c.srv.draining.Load() && !sess.sess.InTxn() {
		c.srv.mRefused.Inc()
		c.send(refusal(m, wire.CodeDraining, "server draining; statement not executed"))
		return
	}
	if !sess.admit() {
		c.srv.mRefused.Inc()
		c.send(refusal(m, wire.CodeRateLimited, "server: session statement rate exceeded"))
		return
	}
	select {
	case sess.queue <- m:
	default:
		c.srv.mRefused.Inc()
		c.send(refusal(m, wire.CodeBackpressure, "server: session queue full"))
	}
}

func (c *srvConn) closeSession(m *wire.Msg) {
	sess := c.lookup(m.SID)
	if sess == nil {
		c.send(refusal(m, wire.CodeNoSession, fmt.Sprintf("server: no session %d", m.SID)))
		return
	}
	// The close rides the session queue, so every statement already admitted
	// gets its reply first; the worker answers the close and exits.
	select {
	case sess.queue <- m:
	case <-sess.kill:
	}
}

// teardown runs when the connection dies for any reason: every session is
// killed, and each worker rolls back its open transaction on the way out so
// a mid-transaction disconnect cannot strand locks.
func (c *srvConn) teardown() {
	c.mu.Lock()
	sessions := make([]*session, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	c.sessions = make(map[uint32]*session)
	c.mu.Unlock()
	for _, s := range sessions {
		s.killOnce.Do(func() { close(s.kill) })
	}
	c.sessWG.Wait()
	// Workers closed their sessions' watches; sweep any stragglers (a watch
	// whose MsgWatchClose teardown is still in flight) and wait the pushers.
	c.mu.Lock()
	var left []*srvWatch
	for _, sw := range c.watches {
		left = append(left, sw)
	}
	c.watches = make(map[uint64]*srvWatch)
	c.mu.Unlock()
	for _, sw := range left {
		sw.w.Close()
	}
	c.pushWG.Wait()
	_ = c.c.Close()
	c.srv.dropConn(c)
}

// remove unregisters a session after its worker exits via MsgClose.
func (c *srvConn) remove(sid uint32) {
	c.mu.Lock()
	delete(c.sessions, sid)
	c.mu.Unlock()
}

// session is one remote session: a core.Session plus the per-session
// admission state and the worker that executes its statements in order.
type session struct {
	conn *srvConn
	sid  uint32
	db   string
	sess core.Session

	queue    chan *wire.Msg
	kill     chan struct{}
	killOnce sync.Once

	// Token bucket for Config.RateLimit, touched only by the reader loop.
	tmu    sync.Mutex
	tokens float64
	last   time.Time
}

// admit takes one rate token, refilling the bucket at Config.RateLimit
// tokens per second up to Config.RateBurst.
func (s *session) admit() bool {
	limit := s.conn.srv.cfg.RateLimit
	if limit <= 0 {
		return true
	}
	s.tmu.Lock()
	defer s.tmu.Unlock()
	now := time.Now()
	s.tokens += now.Sub(s.last).Seconds() * limit
	s.last = now
	if burst := float64(s.conn.srv.cfg.RateBurst); s.tokens > burst {
		s.tokens = burst
	}
	if s.tokens < 1 {
		return false
	}
	s.tokens--
	return true
}

// worker executes the session's statements in arrival order. It exits on
// MsgClose or when the connection kills the session; both paths close the
// core session, rolling back any open transaction. A MsgClose is answered
// only after the session's slot is released, so a client that has its close
// acknowledged can count on the slot (and on Server.Sessions) at once.
func (s *session) worker() {
	defer s.conn.sessWG.Done()
	var closeAck *wire.Msg
	defer func() {
		s.conn.closeSessionWatches(s.sid)
		_ = s.sess.Close()
		s.conn.srv.releaseSession(s.db)
		if closeAck != nil {
			s.conn.send(closeAck)
		}
	}()
	for {
		select {
		case <-s.kill:
			return
		case m := <-s.queue:
			if m.Kind == wire.MsgClose {
				s.conn.remove(s.sid)
				closeAck = &wire.Msg{Kind: wire.MsgReply, SID: s.sid, Seq: m.Seq}
				return
			}
			start := time.Now()
			out, err := s.sess.Execute(m.Stmt)
			s.conn.srv.mLatency.Observe(time.Since(start).Seconds())
			reply := execReply(m, out, err, s.sess.InTxn())
			if err == nil && out != nil && out.Watch != nil {
				// A WATCH statement: register the watcher and reply with its
				// id BEFORE starting the pusher, so the client has the watch
				// routed when the first MsgEvent arrives.
				sw, ok := s.conn.addWatch(s.sid, out.Watch)
				if !ok {
					out.Watch.Close()
					s.conn.srv.mRefused.Inc()
					s.conn.send(refusal(m, wire.CodeWatchLimit, "server: watch limit reached"))
					continue
				}
				reply.Watch = sw.id
				s.conn.send(reply)
				s.conn.pushWG.Add(1)
				go s.conn.push(sw)
				continue
			}
			s.conn.send(reply)
		}
	}
}
