// Package server is the MLDS front end of the serving tier: it exposes every
// language interface of a core.System over TCP using the framing-v2 client
// protocol (internal/wire), the network analogue of the paper's host-machine
// front end through which all users reach MBDS.
//
// One TCP connection multiplexes many sessions. Every message carries a
// client-chosen session id (SID); requests for different sessions execute
// concurrently and their replies interleave on the stream in completion
// order, matched back by Seq. Within one session, statements execute in
// arrival order through a small buffered queue — the admission point:
//
//   - a full session queue refuses the statement with CodeBackpressure;
//   - a session over its statement rate gets CodeRateLimited;
//   - opens beyond the global, per-connection or per-database session caps
//     get CodeSessionLimit;
//   - a draining server refuses new opens and new implicit statements with
//     CodeDraining, while sessions inside an explicit transaction may keep
//     executing until they commit or roll back.
//
// All four refusals are typed wire codes that promise the statement was
// never executed, so clients retry or back off without guessing. Server
// sessions are ordinary core.Sessions: transactions, snapshot reads and the
// Outcome envelope behave exactly as they do in process.
package server

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"mlds/internal/core"
	"mlds/internal/obs"
	"mlds/internal/txn"
	"mlds/internal/wire"
)

// maxSessionsPerConn caps live sessions on one connection.
const maxSessionsPerConn = 1024

// Config tunes the serving tier. Zero values mean the stated defaults.
type Config struct {
	// MaxSessions caps live sessions across all connections (0 = 4096).
	MaxSessions int
	// MaxSessionsPerDB caps live sessions per database (0 = no cap).
	MaxSessionsPerDB int
	// SessionQueue is the per-session request queue depth; a statement
	// arriving on a full queue is refused with CodeBackpressure (0 = 32).
	SessionQueue int
	// RateLimit caps one session's statement admission rate per second,
	// refilling a token bucket of RateBurst capacity (0 = no limit).
	RateLimit float64
	// RateBurst is the token-bucket burst size for RateLimit (0 = 16).
	RateBurst int
	// MaxFrame caps frame size in bytes both ways (0 = wire.DefaultMaxFrame,
	// the client's default): an inbound frame over it is a protocol error, a
	// reply over it is refused with CodeResultTooLarge.
	MaxFrame int
	// MaxWatchesPerConn caps live watches on one connection; a WATCH beyond
	// it is refused with CodeWatchLimit (0 = 64).
	MaxWatchesPerConn int
	// Metrics receives the server counters; nil uses the system's registry.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxSessions == 0 {
		c.MaxSessions = 4096
	}
	if c.SessionQueue == 0 {
		c.SessionQueue = 32
	}
	if c.RateBurst == 0 {
		c.RateBurst = 16
	}
	if c.MaxWatchesPerConn == 0 {
		c.MaxWatchesPerConn = 64
	}
	return c
}

// Server serves one core.System to remote clients.
type Server struct {
	sys *core.System
	cfg Config
	ln  net.Listener

	mu       sync.Mutex
	closed   bool
	conns    map[*srvConn]bool
	perDB    map[string]int // live sessions per database
	sessions int            // live sessions, total
	draining atomic.Bool
	wg       sync.WaitGroup

	reg                                *obs.Registry
	mConns, mSessions                  *obs.Gauge
	mRequests, mRefused, mSessionTotal *obs.Counter
	mLatency                           *obs.Histogram
}

// Serve starts serving the system on the listener; it returns immediately.
func Serve(ln net.Listener, sys *core.System, cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = sys.Metrics()
	}
	s := &Server{
		sys:   sys,
		cfg:   cfg,
		ln:    ln,
		conns: make(map[*srvConn]bool),
		perDB: make(map[string]int),
		reg:   reg,
	}
	s.mConns = reg.Gauge("mlds_server_conns", "live client connections")
	s.mSessions = reg.Gauge("mlds_server_sessions", "live remote sessions")
	s.mRequests = reg.Counter("mlds_server_requests_total", "client messages served")
	s.mRefused = reg.Counter("mlds_server_refused_total",
		"requests refused by admission control (backpressure, rate, caps, drain)")
	s.mSessionTotal = reg.Counter("mlds_server_sessions_total", "remote sessions ever opened")
	s.mLatency = reg.Histogram("mlds_server_request_seconds",
		"statement latency as measured at the serving tier", nil)
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen starts a server on the TCP address (":0" for an ephemeral port).
func Listen(addr string, sys *core.System, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, sys, cfg), nil
}

// Addr reports the server's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Drain starts a graceful shutdown: new session opens and new implicit
// statements are refused with CodeDraining (replies carry DrainingFlag so
// clients redial), while sessions holding an explicit transaction may keep
// executing statements until they commit or roll back. Connections stay up;
// Close completes the shutdown.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether the server is refusing new work.
func (s *Server) Draining() bool { return s.draining.Load() }

// Healthy reports liveness for /healthz: serving and not draining.
func (s *Server) Healthy() bool {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	return !closed && !s.draining.Load()
}

// Handler returns the observability endpoints (/metrics, /healthz) for the
// server's registry and health.
func (s *Server) Handler() http.Handler { return obs.Handler(s.reg, s.Healthy) }

// Sessions reports the number of live remote sessions.
func (s *Server) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions
}

// Close stops accepting, tears down every connection (closing its sessions,
// which rolls back their open transactions) and waits for the workers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*srvConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = nc.Close()
			return
		}
		c := newSrvConn(s, nc)
		s.conns[c] = true
		s.mu.Unlock()
		s.mConns.Inc()
		s.wg.Add(1)
		go c.serve()
	}
}

// admitSession reserves a session slot against the global, per-connection
// and per-database caps; it returns false with no reservation if any cap is
// exceeded. releaseSession returns the slot.
func (s *Server) admitSession(connSessions int, db string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions >= s.cfg.MaxSessions {
		return false
	}
	if connSessions >= maxSessionsPerConn {
		return false
	}
	if s.cfg.MaxSessionsPerDB > 0 && s.perDB[db] >= s.cfg.MaxSessionsPerDB {
		return false
	}
	s.sessions++
	s.perDB[db]++
	return true
}

func (s *Server) releaseSession(db string) {
	s.mu.Lock()
	s.sessions--
	if s.perDB[db] <= 1 {
		delete(s.perDB, db)
	} else {
		s.perDB[db]--
	}
	s.mu.Unlock()
	s.mSessions.Dec()
}

func (s *Server) dropConn(c *srvConn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	s.mConns.Dec()
}

// refusal builds the typed reply for an admission refusal.
// maxFrame is the frame limit in force.
func (s *Server) maxFrame() int {
	if s.cfg.MaxFrame > 0 {
		return s.cfg.MaxFrame
	}
	return wire.DefaultMaxFrame
}

func refusal(m *wire.Msg, code wire.Code, text string) *wire.Msg {
	return &wire.Msg{Kind: wire.MsgReply, SID: m.SID, Seq: m.Seq, Code: code, Err: text}
}

// execReply renders one executed statement's outcome as a reply message.
func execReply(m *wire.Msg, out *core.Outcome, err error, inTxn bool) *wire.Msg {
	reply := &wire.Msg{Kind: wire.MsgReply, SID: m.SID, Seq: m.Seq}
	if out != nil {
		reply.Code = out.Code
		reply.Language = out.Language
		reply.Rendered = out.Rendered
		reply.WallUS = uint64(out.Wall.Microseconds())
		reply.SimUS = uint64(out.Sim.Microseconds())
	}
	if err != nil {
		reply.Err = err.Error()
		if reply.Code == wire.CodeOK {
			reply.Code = core.CodeOf(err)
		}
		var ae *txn.AbortedError
		if errors.As(err, &ae) {
			reply.Txn = ae.ID
		}
	}
	if inTxn {
		reply.Flags |= wire.InTxnFlag
	}
	return reply
}

var errUnknownKind = fmt.Errorf("server: unknown message kind")
