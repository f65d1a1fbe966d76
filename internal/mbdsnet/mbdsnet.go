// Package mbdsnet puts the MBDS communication bus on a real network: a
// backend serves its kdb store over TCP with the framing-v2 length-prefixed
// binary protocol (internal/wire), and the controller reaches it through a
// RemoteBackend client that satisfies mbds.Executor. This mirrors the
// original hardware architecture, where the controller (master) and the
// backends (slaves) were separate machines. The bus shares framing v2 with
// the client-facing serving tier — one codec for both hops.
package mbdsnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/obs"
	"mlds/internal/wire"
)

// BackendServer serves one backend store to controllers.
type BackendServer struct {
	store *kdb.Store
	ln    net.Listener

	mu       sync.Mutex
	closed   bool
	draining atomic.Bool
	conns    map[net.Conn]bool
	wg       sync.WaitGroup

	// Wire-level op counters. The atomics always count (tests assert the
	// one-message-per-backend-per-batch property through them); the obs
	// counters mirror them once Instrument attaches a registry.
	nBatch, nBatchReqs, nErrors atomic.Uint64

	mBatch, mBatchReqs, mErrors *obs.Counter // nil until Instrument; nil-safe
}

// OpCounts is a snapshot of a backend server's wire-level op counters.
type OpCounts struct {
	Batch     uint64 // execbatch messages served
	BatchReqs uint64 // requests carried inside execbatch messages
	Errors    uint64 // ops that returned an error
}

// OpCounts snapshots the server's wire-level op counters.
func (s *BackendServer) OpCounts() OpCounts {
	return OpCounts{
		Batch:     s.nBatch.Load(),
		BatchReqs: s.nBatchReqs.Load(),
		Errors:    s.nErrors.Load(),
	}
}

// Serve starts serving the store on the listener. It returns immediately;
// Close stops the server.
func Serve(ln net.Listener, store *kdb.Store) *BackendServer {
	s := &BackendServer{store: store, ln: ln, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen starts a backend server on the TCP address (":0" for an ephemeral
// port).
func Listen(addr string, store *kdb.Store) (*BackendServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(ln, store), nil
}

// Addr reports the server's listen address.
func (s *BackendServer) Addr() string { return s.ln.Addr().String() }

// Store exposes the served store (used by tests and local tooling).
func (s *BackendServer) Store() *kdb.Store { return s.store }

// Drain puts the server into drain mode: connections stay up and every
// subsequent execbatch is answered with a typed CodeDraining refusal —
// never executed, so the controller can safely resend it elsewhere or later —
// instead of the raw connection reset a Close would cause mid-request. The
// maintenance verbs (len, export, import, drop) keep working, since draining
// a backend is exactly when the migration engine needs them. Close completes
// the shutdown.
func (s *BackendServer) Drain() { s.draining.Store(true) }

// Draining reports whether the server is refusing new work.
func (s *BackendServer) Draining() bool { return s.draining.Load() }

// Close stops accepting and tears down live connections.
func (s *BackendServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *BackendServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *BackendServer) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		envp, err := wire.ReadEnvelope(br, 0)
		if err != nil {
			return
		}
		env := *envp
		reply := wire.Envelope{Seq: env.Seq}
		noteErr := func(msg string) {
			s.nErrors.Add(1)
			s.mErrors.Inc()
			reply.Err = msg
			if reply.ErrCode == wire.CodeOK {
				reply.ErrCode = wire.CodeInternal
			}
		}
		if s.draining.Load() && env.Action == "execbatch" {
			reply.ErrCode = wire.CodeDraining
			reply.Err = "mbdsnet: backend draining (request not executed)"
			if err := wire.WriteEnvelope(bw, &reply); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
			continue
		}
		switch env.Action {
		case "execbatch":
			s.nBatch.Add(1)
			s.mBatch.Inc()
			s.nBatchReqs.Add(uint64(len(env.Reqs)))
			s.mBatchReqs.Add(uint64(len(env.Reqs)))
			results := make([]*kdb.Result, len(env.Reqs))
			if err := s.store.ExecBatch(env.Reqs, results); err != nil {
				noteErr(err.Error())
				break
			}
			reply.Results = results
		case "len":
			reply.N = s.store.Len()
		case "export":
			recs, next, epoch, err := s.store.ExportSince(env.Since, abdm.RecordID(env.After), env.Limit)
			if err != nil {
				noteErr(err.Error())
				break
			}
			reply.Migs = recs
			reply.Next = uint64(next)
			reply.Epoch = epoch
		case "import":
			n, err := s.store.ImportPartition(env.Migs)
			if err != nil {
				noteErr(err.Error())
				break
			}
			reply.N = n
		case "drop":
			ids := make([]abdm.RecordID, len(env.IDs))
			for i, id := range env.IDs {
				ids[i] = abdm.RecordID(id)
			}
			n, err := s.store.DropRecords(ids)
			if err != nil {
				noteErr(err.Error())
				break
			}
			reply.N = n
		default:
			reply.Err = fmt.Sprintf("mbdsnet: unknown action %q", env.Action)
			reply.ErrCode = wire.CodeProto
		}
		if err := wire.WriteEnvelope(bw, &reply); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// DownError reports a backend the request could not be exchanged with: the
// dial failed, or the connection broke mid-exchange — in which case the
// backend may have run the request before it broke. The client drops the
// connection and the next call redials. The multi-backend layer recognises
// the error through Transient and resends under its backoff policy, which
// is safe because every request the controller sends is idempotent.
type DownError struct {
	Addr string
	Err  error
}

// Error describes the unreachable backend.
func (e *DownError) Error() string {
	return fmt.Sprintf("mbdsnet: backend %s unreachable: %v", e.Addr, e.Err)
}

// Unwrap exposes the underlying network error.
func (e *DownError) Unwrap() error { return e.Err }

// Transient marks the failure as retryable.
func (e *DownError) Transient() bool { return true }

// DrainingError reports a backend that is draining: the request was
// delivered but deliberately NOT executed, so resending it — to a replica, a
// migrated-to backend, or the same backend after its restart — is always
// safe. The multi-backend layer recognises it through Transient and retries
// under its backoff policy.
type DrainingError struct {
	Addr string
}

// Error describes the draining backend.
func (e *DrainingError) Error() string {
	return fmt.Sprintf("mbdsnet: backend %s draining (request not executed)", e.Addr)
}

// Transient marks the failure as retryable.
func (e *DrainingError) Transient() bool { return true }

// RemoteBackend is the controller's client for one remote backend. It
// satisfies mbds.Executor. A single connection is shared; requests are
// serialised over it (the original bus was also a shared medium). Every
// call makes one attempt: retries belong to the multi-backend layer.
type RemoteBackend struct {
	addr string

	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	seq  uint64
}

// Dial connects to a backend server.
func Dial(addr string) (*RemoteBackend, error) {
	rb := &RemoteBackend{addr: addr}
	if err := rb.connect(); err != nil {
		return nil, err
	}
	return rb, nil
}

func (rb *RemoteBackend) connect() error {
	conn, err := net.Dial("tcp", rb.addr)
	if err != nil {
		return fmt.Errorf("mbdsnet: dialing backend %s: %w", rb.addr, err)
	}
	rb.conn = conn
	rb.bw = bufio.NewWriter(conn)
	rb.br = bufio.NewReader(conn)
	return nil
}

// Close tears the connection down.
func (rb *RemoteBackend) Close() error {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.conn == nil {
		return nil
	}
	err := rb.conn.Close()
	rb.conn = nil
	return err
}

// dropConn discards the connection so the next round trip redials. Caller
// must hold rb.mu.
func (rb *RemoteBackend) dropConn() {
	if rb.conn != nil {
		_ = rb.conn.Close()
	}
	rb.conn = nil
	rb.bw = nil
	rb.br = nil
}

// roundTrip sends one envelope and waits for its reply, dialing first when
// it holds no connection. A failure to dial, send or read drops the
// connection and returns a *DownError.
func (rb *RemoteBackend) roundTrip(env wire.Envelope) (wire.Envelope, error) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.conn == nil {
		if err := rb.connect(); err != nil {
			return wire.Envelope{}, &DownError{Addr: rb.addr, Err: err}
		}
	}
	rb.seq++
	env.Seq = rb.seq
	err := wire.WriteEnvelope(rb.bw, &env)
	if err == nil {
		err = rb.bw.Flush()
	}
	var reply *wire.Envelope
	if err == nil {
		reply, err = wire.ReadEnvelope(rb.br, 0)
	}
	if err != nil {
		rb.dropConn()
		return wire.Envelope{}, &DownError{Addr: rb.addr, Err: err}
	}
	if reply.Seq != env.Seq {
		// The stream is out of sync; poison the connection so the next
		// request starts clean.
		rb.dropConn()
		return wire.Envelope{}, fmt.Errorf("mbdsnet: backend %s replied out of order (%d != %d)", rb.addr, reply.Seq, env.Seq)
	}
	return *reply, nil
}

// replyError maps a reply's error fields to a typed error: a CodeDraining
// refusal becomes a *DrainingError (retryable, never executed); anything
// else surfaces as plain text.
func (rb *RemoteBackend) replyError(reply wire.Envelope) error {
	if reply.ErrCode == wire.CodeDraining {
		return &DrainingError{Addr: rb.addr}
	}
	if reply.Err != "" {
		return errors.New(reply.Err)
	}
	return nil
}

// ExecBatch executes a backend's share of a round on the remote backend as
// one "execbatch" wire message, writing one result per request into out.
func (rb *RemoteBackend) ExecBatch(reqs []*abdl.Request, out []*kdb.Result) error {
	reply, err := rb.roundTrip(wire.Envelope{Action: "execbatch", Reqs: reqs})
	if err != nil {
		return err
	}
	if err := rb.replyError(reply); err != nil {
		return err
	}
	if len(reply.Results) != len(reqs) {
		return fmt.Errorf("mbdsnet: backend %s answered %d results for a %d-request batch",
			rb.addr, len(reply.Results), len(reqs))
	}
	copy(out, reply.Results)
	return nil
}

// Len reports the remote partition's record count.
func (rb *RemoteBackend) Len() (int, error) {
	reply, err := rb.roundTrip(wire.Envelope{Action: "len"})
	if err != nil {
		return 0, err
	}
	if err := rb.replyError(reply); err != nil {
		return 0, err
	}
	return reply.N, nil
}

// ExportSince pages out the remote partition's records touched at or after
// the epoch (see kdb.Store.ExportSince).
func (rb *RemoteBackend) ExportSince(since uint64, after abdm.RecordID, limit int) ([]kdb.MigRecord, abdm.RecordID, uint64, error) {
	reply, err := rb.roundTrip(wire.Envelope{Action: "export", Since: since, After: uint64(after), Limit: limit})
	if err != nil {
		return nil, 0, 0, err
	}
	if err := rb.replyError(reply); err != nil {
		return nil, 0, 0, err
	}
	return reply.Migs, abdm.RecordID(reply.Next), reply.Epoch, nil
}

// ImportPartition installs exported records on the remote partition (see
// kdb.Store.ImportPartition). Imports replace whole per-key states.
func (rb *RemoteBackend) ImportPartition(recs []kdb.MigRecord) (int, error) {
	reply, err := rb.roundTrip(wire.Envelope{Action: "import", Migs: recs})
	if err != nil {
		return 0, err
	}
	if err := rb.replyError(reply); err != nil {
		return 0, err
	}
	return reply.N, nil
}

// DropRecords removes the given records — live state and version chains —
// from the remote partition (see kdb.Store.DropRecords).
func (rb *RemoteBackend) DropRecords(ids []abdm.RecordID) (int, error) {
	wids := make([]uint64, len(ids))
	for i, id := range ids {
		wids[i] = uint64(id)
	}
	reply, err := rb.roundTrip(wire.Envelope{Action: "drop", IDs: wids})
	if err != nil {
		return 0, err
	}
	if err := rb.replyError(reply); err != nil {
		return 0, err
	}
	return reply.N, nil
}
