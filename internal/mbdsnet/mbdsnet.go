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
	"time"

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
	nExec, nBatch, nBatchReqs, nErrors atomic.Uint64

	mExec, mBatch, mBatchReqs, mErrors *obs.Counter // nil until Instrument; nil-safe
}

// OpCounts is a snapshot of a backend server's wire-level op counters.
type OpCounts struct {
	Exec      uint64 // single-request exec messages served
	Batch     uint64 // execbatch messages served
	BatchReqs uint64 // requests carried inside execbatch messages
	Errors    uint64 // ops that returned an error
}

// OpCounts snapshots the server's wire-level op counters.
func (s *BackendServer) OpCounts() OpCounts {
	return OpCounts{
		Exec:      s.nExec.Load(),
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
// subsequent exec/execbatch is answered with a typed CodeDraining refusal —
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
		if s.draining.Load() && (env.Action == "" || env.Action == "exec" || env.Action == "execbatch") {
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
		case "", "exec":
			s.nExec.Add(1)
			s.mExec.Inc()
			if env.Req == nil {
				noteErr("mbdsnet: exec without a request")
				break
			}
			req, err := env.Req.ToRequest()
			if err != nil {
				noteErr(err.Error())
				break
			}
			res, err := s.store.Exec(req)
			if err != nil {
				noteErr(err.Error())
				break
			}
			wres := wire.FromResult(res)
			reply.Res = &wres
		case "execbatch":
			s.nBatch.Add(1)
			s.mBatch.Inc()
			s.nBatchReqs.Add(uint64(len(env.Reqs)))
			s.mBatchReqs.Add(uint64(len(env.Reqs)))
			reqs := make([]*abdl.Request, len(env.Reqs))
			var convErr error
			for i := range env.Reqs {
				if reqs[i], convErr = env.Reqs[i].ToRequest(); convErr != nil {
					break
				}
			}
			if convErr != nil {
				noteErr(convErr.Error())
				break
			}
			results, err := s.store.ExecBatch(reqs)
			if err != nil {
				noteErr(err.Error())
				break
			}
			reply.Results = make([]wire.Result, len(results))
			for i, res := range results {
				reply.Results[i] = wire.FromResult(res)
			}
		case "len":
			reply.N = s.store.Len()
		case "export":
			recs, next, epoch, err := s.store.ExportSince(env.Since, abdm.RecordID(env.After), env.Limit)
			if err != nil {
				noteErr(err.Error())
				break
			}
			reply.Migs = make([]wire.Mig, len(recs))
			for i := range recs {
				reply.Migs[i] = wire.FromMig(&recs[i])
			}
			reply.Next = uint64(next)
			reply.Epoch = epoch
		case "import":
			recs := make([]kdb.MigRecord, len(env.Migs))
			var convErr error
			for i := range env.Migs {
				if recs[i], convErr = env.Migs[i].ToMig(); convErr != nil {
					break
				}
			}
			if convErr != nil {
				noteErr(convErr.Error())
				break
			}
			n, err := s.store.ImportPartition(recs)
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

// DownError reports a backend that could not be reached: the request was
// never delivered, so resending it is always safe. The multi-backend layer
// recognises this through Transient and retries under its backoff policy.
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

// AmbiguousError reports a connection that failed mid-exchange: the request
// may or may not have been delivered and applied. Non-idempotent requests
// (an INSERT allocating a fresh key) are not resent automatically — a lost
// reply after a delivered INSERT would otherwise be applied twice — so the
// ambiguity is surfaced to the caller instead.
type AmbiguousError struct {
	Addr string
	Err  error
}

// Error describes the ambiguous outcome.
func (e *AmbiguousError) Error() string {
	return fmt.Sprintf("mbdsnet: backend %s failed mid-request (outcome unknown, not resent): %v", e.Addr, e.Err)
}

// Unwrap exposes the underlying network error.
func (e *AmbiguousError) Unwrap() error { return e.Err }

// MaybeApplied reports that the request may have executed on the backend.
func (e *AmbiguousError) MaybeApplied() bool { return true }

// Transient marks the failure as a backend-side fault (it counts toward the
// circuit breaker; the retry policy still refuses to resend non-idempotent
// requests after it).
func (e *AmbiguousError) Transient() bool { return true }

// DrainingError reports a backend that is draining: the request was
// delivered but deliberately NOT executed, so resending it — to a replica, a
// migrated-to backend, or the same backend after its restart — is always
// safe, even for non-idempotent requests. The multi-backend layer recognises
// it through Transient and retries under its backoff policy; since
// MaybeApplied is absent, the retry policy never downgrades it to an
// ambiguous outcome.
type DrainingError struct {
	Addr string
}

// Error describes the draining backend.
func (e *DrainingError) Error() string {
	return fmt.Sprintf("mbdsnet: backend %s draining (request not executed)", e.Addr)
}

// Transient marks the failure as retryable.
func (e *DrainingError) Transient() bool { return true }

// DialOpts tunes a RemoteBackend's reconnect policy. Zero values take the
// defaults.
type DialOpts struct {
	// MaxReconnects bounds reconnect attempts after a mid-exchange failure
	// within one round trip (default 4; negative = none).
	MaxReconnects int
	// ReconnectBackoff is the first reconnect delay, doubling per attempt
	// with ±50% deterministic jitter (default 5ms).
	ReconnectBackoff time.Duration
	// ReconnectBudget caps the total time spent backing off and redialing in
	// one round trip — set it to the controller's request deadline so the
	// client gives up before the caller does (default 250ms).
	ReconnectBudget time.Duration
}

func (o DialOpts) withDefaults() DialOpts {
	if o.MaxReconnects == 0 {
		o.MaxReconnects = 4
	}
	if o.MaxReconnects < 0 {
		o.MaxReconnects = 0
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 5 * time.Millisecond
	}
	if o.ReconnectBudget <= 0 {
		o.ReconnectBudget = 250 * time.Millisecond
	}
	return o
}

// RemoteBackend is the controller's client for one remote backend. It
// satisfies mbds.Executor. A single connection is shared; requests are
// serialised over it (the original bus was also a shared medium).
type RemoteBackend struct {
	addr string
	opts DialOpts

	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	seq  uint64
	rng  uint64 // xorshift64* state for backoff jitter
}

// Dial connects to a backend server with the default reconnect policy.
func Dial(addr string) (*RemoteBackend, error) {
	return DialWith(addr, DialOpts{})
}

// DialWith connects to a backend server with an explicit reconnect policy.
func DialWith(addr string, opts DialOpts) (*RemoteBackend, error) {
	rb := &RemoteBackend{addr: addr, opts: opts.withDefaults(), rng: 0x9E3779B97F4A7C15}
	if err := rb.connect(); err != nil {
		return nil, err
	}
	return rb, nil
}

// jitter scales d by a deterministic pseudo-random factor in [0.5, 1.5), so
// a fleet of controllers redialing one restarted backend does not thunder in
// lockstep. Caller must hold rb.mu.
func (rb *RemoteBackend) jitter(d time.Duration) time.Duration {
	rb.rng ^= rb.rng << 13
	rb.rng ^= rb.rng >> 7
	rb.rng ^= rb.rng << 17
	f := 0.5 + float64(rb.rng>>11)/float64(uint64(1)<<53)
	return time.Duration(float64(d) * f)
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

// roundTrip sends one envelope and waits for its reply. A connection that
// cannot be established at all yields a DownError (the request was never
// delivered; safe to retry). A connection that fails mid-exchange is
// reconnected and the envelope resent only when idem says re-execution is
// harmless; otherwise the delivered-or-not ambiguity is surfaced as an
// AmbiguousError rather than risking a double apply.
func (rb *RemoteBackend) roundTrip(env wire.Envelope, idem bool) (wire.Envelope, error) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.conn == nil {
		if err := rb.connect(); err != nil {
			return wire.Envelope{}, &DownError{Addr: rb.addr, Err: err}
		}
	}
	rb.seq++
	env.Seq = rb.seq
	send := func() (wire.Envelope, error) {
		if err := wire.WriteEnvelope(rb.bw, &env); err != nil {
			return wire.Envelope{}, err
		}
		if err := rb.bw.Flush(); err != nil {
			return wire.Envelope{}, err
		}
		reply, err := wire.ReadEnvelope(rb.br, 0)
		if err != nil {
			return wire.Envelope{}, err
		}
		return *reply, nil
	}
	reply, err := send()
	if err != nil {
		rb.dropConn()
		if !idem {
			return wire.Envelope{}, &AmbiguousError{Addr: rb.addr, Err: err}
		}
		// The backend may have restarted: reconnect and resend (safe — the
		// request is idempotent) under bounded exponential backoff with
		// jitter, capped by the reconnect budget so the controller's own
		// request deadline wins.
		deadline := time.Now().Add(rb.opts.ReconnectBudget)
		backoff := rb.opts.ReconnectBackoff
		resent := false
		for attempt := 0; attempt < rb.opts.MaxReconnects; attempt++ {
			if attempt > 0 {
				wait := rb.jitter(backoff)
				backoff *= 2
				if time.Now().Add(wait).After(deadline) {
					break
				}
				time.Sleep(wait)
			}
			if time.Now().After(deadline) {
				break
			}
			if cerr := rb.connect(); cerr != nil {
				continue
			}
			reply, err = send()
			if err == nil {
				resent = true
				break
			}
			rb.dropConn()
		}
		if !resent {
			return wire.Envelope{}, &DownError{Addr: rb.addr, Err: err}
		}
	}
	if reply.Seq != env.Seq {
		// The stream is out of sync; poison the connection so the next
		// request starts clean.
		rb.dropConn()
		return wire.Envelope{}, fmt.Errorf("mbdsnet: backend %s replied out of order (%d != %d)", rb.addr, reply.Seq, env.Seq)
	}
	return reply, nil
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

// Exec executes one ABDL request on the remote backend.
func (rb *RemoteBackend) Exec(req *abdl.Request) (*kdb.Result, error) {
	// Everything but a fresh-key INSERT is safe to re-execute: retrieves
	// read, DELETE/UPDATE qualify by query and assign absolute values, and
	// a replica-pinned INSERT overwrites its own key.
	idem := req.Kind != abdl.Insert || req.ForceID != 0
	wreq := wire.FromRequest(req)
	reply, err := rb.roundTrip(wire.Envelope{Action: "exec", Req: &wreq}, idem)
	if err != nil {
		return nil, err
	}
	if err := rb.replyError(reply); err != nil {
		return nil, err
	}
	if reply.Res == nil {
		return nil, fmt.Errorf("mbdsnet: backend %s sent an empty reply", rb.addr)
	}
	return reply.Res.ToResult()
}

// ExecBatch executes a slice of ABDL requests on the remote backend as one
// "execbatch" wire message, returning one result per request. It satisfies
// mbds.BatchExecutor, so a controller batch costs one message round per
// backend. The batch is the resend unit: it is re-sent after a mid-exchange
// failure only when every request in it is idempotent.
func (rb *RemoteBackend) ExecBatch(reqs []*abdl.Request) ([]*kdb.Result, error) {
	idem := true
	wreqs := make([]wire.Request, len(reqs))
	for i, req := range reqs {
		if req.Kind == abdl.Insert && req.ForceID == 0 {
			idem = false
		}
		wreqs[i] = wire.FromRequest(req)
	}
	reply, err := rb.roundTrip(wire.Envelope{Action: "execbatch", Reqs: wreqs}, idem)
	if err != nil {
		return nil, err
	}
	if err := rb.replyError(reply); err != nil {
		return nil, err
	}
	if len(reply.Results) != len(reqs) {
		return nil, fmt.Errorf("mbdsnet: backend %s answered %d results for a %d-request batch",
			rb.addr, len(reply.Results), len(reqs))
	}
	out := make([]*kdb.Result, len(reply.Results))
	for i := range reply.Results {
		if out[i], err = reply.Results[i].ToResult(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Len reports the remote partition's record count.
func (rb *RemoteBackend) Len() (int, error) {
	reply, err := rb.roundTrip(wire.Envelope{Action: "len"}, true)
	if err != nil {
		return 0, err
	}
	if err := rb.replyError(reply); err != nil {
		return 0, err
	}
	return reply.N, nil
}

// ExportSince pages out the remote partition's records touched at or after
// the epoch (see kdb.Store.ExportSince). It satisfies the controller's
// migration source interface; the verb is idempotent, so it rides the full
// reconnect policy.
func (rb *RemoteBackend) ExportSince(since uint64, after abdm.RecordID, limit int) ([]kdb.MigRecord, abdm.RecordID, uint64, error) {
	reply, err := rb.roundTrip(wire.Envelope{Action: "export", Since: since, After: uint64(after), Limit: limit}, true)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := rb.replyError(reply); err != nil {
		return nil, 0, 0, err
	}
	recs := make([]kdb.MigRecord, len(reply.Migs))
	for i := range reply.Migs {
		if recs[i], err = reply.Migs[i].ToMig(); err != nil {
			return nil, 0, 0, err
		}
	}
	return recs, abdm.RecordID(reply.Next), reply.Epoch, nil
}

// ImportPartition installs exported records on the remote partition (see
// kdb.Store.ImportPartition). Imports replace whole per-key states, so the
// verb is idempotent and safely resent.
func (rb *RemoteBackend) ImportPartition(recs []kdb.MigRecord) (int, error) {
	migs := make([]wire.Mig, len(recs))
	for i := range recs {
		migs[i] = wire.FromMig(&recs[i])
	}
	reply, err := rb.roundTrip(wire.Envelope{Action: "import", Migs: migs}, true)
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
	reply, err := rb.roundTrip(wire.Envelope{Action: "drop", IDs: wids}, true)
	if err != nil {
		return 0, err
	}
	if err := rb.replyError(reply); err != nil {
		return 0, err
	}
	return reply.N, nil
}
