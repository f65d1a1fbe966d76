package client

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"mlds/internal/core"
	"mlds/internal/txn"
	"mlds/internal/wire"
)

// OpenOption configures a remote session at open time.
type OpenOption func(*openCfg)

type openCfg struct{ snap bool }

// Snapshot opens the session in snapshot mode: every implicit statement
// reads a lock-free snapshot (core.SnapshotSession on the server side).
func Snapshot() OpenOption { return func(o *openCfg) { o.snap = true } }

// Open opens a remote session on the named database in the given language
// (same names and aliases as core.System.Open). The returned Session
// implements core.Session.
func (c *Client) Open(ctx context.Context, db, language string, opts ...OpenOption) (*Session, error) {
	var cfg openCfg
	for _, o := range opts {
		o(&cfg)
	}
	c.mu.Lock()
	c.nextSID++
	sid := c.nextSID
	c.mu.Unlock()
	m := &wire.Msg{Kind: wire.MsgOpen, SID: sid, DB: db, Language: language}
	if cfg.snap {
		m.Flags |= wire.SnapFlag
	}
	reply, err := c.roundTrip(ctx, m)
	if err != nil {
		return nil, err
	}
	if reply.Code != wire.CodeOK {
		return nil, remoteError(reply)
	}
	return &Session{c: c, sid: sid, db: db, lang: reply.Language}, nil
}

// Session is a remote session. It satisfies core.Session: statements,
// transaction control and outcomes behave exactly as in process, with the
// network in between.
type Session struct {
	c    *Client
	sid  uint32
	db   string
	lang string

	inTxn  atomic.Bool // mirrored from the server's InTxnFlag
	closed atomic.Bool
}

var _ core.Session = (*Session)(nil)

// ExecuteCtx executes one statement, bounded by the context.
func (s *Session) ExecuteCtx(ctx context.Context, text string) (*core.Outcome, error) {
	if s.closed.Load() {
		return nil, errors.New("client: session closed")
	}
	reply, err := s.c.roundTrip(ctx, &wire.Msg{Kind: wire.MsgExec, SID: s.sid, Stmt: text})
	if err != nil {
		return nil, err
	}
	s.inTxn.Store(reply.Flags&wire.InTxnFlag != 0)
	out := &core.Outcome{
		Language: reply.Language,
		Text:     text,
		Rendered: reply.Rendered,
		Code:     reply.Code,
		Wall:     time.Duration(reply.WallUS) * time.Microsecond,
		Sim:      time.Duration(reply.SimUS) * time.Microsecond,
	}
	if out.Language == "" {
		out.Language = s.lang
	}
	if reply.Watch != 0 {
		out.Watch = s.c.takeWatch(reply.Watch)
	}
	if reply.Code != wire.CodeOK {
		return out, remoteError(reply)
	}
	return out, nil
}

// Execute executes one statement under the client's default timeout
// (core.Session form). The wait derives from the client's lifetime context,
// so a concurrent Client.Close cancels it immediately.
func (s *Session) Execute(text string) (*core.Outcome, error) {
	ctx, cancel := s.c.opCtx()
	defer cancel()
	return s.ExecuteCtx(ctx, text)
}

// Language reports the session's language interface.
func (s *Session) Language() string { return s.lang }

// control runs one transaction-control statement, discarding the outcome.
func (s *Session) control(stmt string) error {
	_, err := s.Execute(stmt)
	return err
}

// Begin opens an explicit transaction.
func (s *Session) Begin() error { return s.control("BEGIN WORK") }

// BeginSnapshot opens an explicit read-only snapshot transaction.
func (s *Session) BeginSnapshot() error { return s.control("BEGIN WORK READ ONLY") }

// Commit commits the open explicit transaction.
func (s *Session) Commit() error { return s.control("COMMIT WORK") }

// Rollback aborts the open explicit transaction.
func (s *Session) Rollback() error { return s.control("ROLLBACK WORK") }

// InTxn reports whether an explicit transaction is open, as of the last
// reply seen from the server.
func (s *Session) InTxn() bool { return s.inTxn.Load() }

// Close closes the remote session, rolling back any open transaction.
func (s *Session) Close() error {
	if s.closed.Swap(true) {
		return nil
	}
	ctx, cancel := s.c.opCtx()
	defer cancel()
	reply, err := s.c.roundTrip(ctx, &wire.Msg{Kind: wire.MsgClose, SID: s.sid})
	if err != nil {
		return err
	}
	if reply.Code != wire.CodeOK {
		return remoteError(reply)
	}
	return nil
}

// ErrResultTooLarge reports a statement whose reply would exceed the frame
// limit: the server refused to send it (wire.CodeResultTooLarge), and the
// connection and its other sessions carry on. The statement did run.
var ErrResultTooLarge = errors.New("client: result too large for one reply frame")

// Error is a typed failure from the server for codes that have no richer
// local form. Code classification (Retryable, NotExecuted) comes with it.
type Error struct {
	Code wire.Code
	Txn  uint64 // aborted transaction id, when the code is a txn abort
	Msg  string
}

func (e *Error) Error() string {
	if e.Msg != "" {
		return e.Msg
	}
	return fmt.Sprintf("mlds server error: %s", e.Code)
}

// Retryable reports whether retrying the request can succeed.
func (e *Error) Retryable() bool { return e.Code.Retryable() }

// NotExecuted reports the server's promise that the statement never ran, so
// retrying cannot double-apply it.
func (e *Error) NotExecuted() bool { return e.Code.NotExecuted() }

// remoteError reconstructs the richest local error form for a reply code,
// so remote callers keep using errors.Is/errors.As exactly as local ones:
// deadlocks come back as *txn.AbortedError wrapping txn.ErrDeadlock,
// catalog misses wrap core.ErrNoDatabase, and so on. Codes with no local
// analogue (draining, rate limits, backpressure) become *Error.
func remoteError(m *wire.Msg) error {
	switch m.Code {
	case wire.CodeOK:
		return nil
	case wire.CodeDeadlock:
		return &txn.AbortedError{ID: m.Txn, Cause: txn.ErrDeadlock}
	case wire.CodeLockTimeout:
		return &txn.AbortedError{ID: m.Txn, Cause: txn.ErrLockTimeout}
	case wire.CodeTxnAborted:
		return &txn.AbortedError{ID: m.Txn, Cause: errors.New(abortCause(m))}
	case wire.CodeReadOnly:
		return fmt.Errorf("%w (%s)", txn.ErrReadOnly, m.Code)
	case wire.CodeNoDatabase:
		return fmt.Errorf("%w: %s", core.ErrNoDatabase, m.Err)
	case wire.CodeWrongModel:
		return fmt.Errorf("%w: %s", core.ErrWrongModel, m.Err)
	case wire.CodeUnknownLanguage:
		return fmt.Errorf("%w: %s", core.ErrUnknownLanguage, m.Err)
	case wire.CodeNoTxn:
		return core.ErrNoTxn
	case wire.CodeResultTooLarge:
		return fmt.Errorf("%w: %s", ErrResultTooLarge, m.Err)
	default:
		return &Error{Code: m.Code, Txn: m.Txn, Msg: m.Err}
	}
}

// abortCause strips the server-side AbortedError prefix ("txn N aborted: ")
// from the error text, so reconstructing the wrapper does not double it.
func abortCause(m *wire.Msg) string {
	prefix := fmt.Sprintf("txn %d aborted: ", m.Txn)
	if rest, ok := strings.CutPrefix(m.Err, prefix); ok {
		return rest
	}
	return m.Err
}
