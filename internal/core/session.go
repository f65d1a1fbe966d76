package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/cdc"
	"mlds/internal/codasyl"
	"mlds/internal/dapkms"
	"mlds/internal/daplex"
	"mlds/internal/dli"
	"mlds/internal/hiekms"
	"mlds/internal/kdb"
	"mlds/internal/kfs"
	"mlds/internal/kms"
	"mlds/internal/obs"
	"mlds/internal/plancache"
	"mlds/internal/relkms"
	"mlds/internal/sql"
	"mlds/internal/txn"
	"mlds/internal/wire"
)

// Language names, as reported by Session.Language and accepted (among other
// spellings) by System.Open.
const (
	LangDML    = "codasyl-dml"
	LangDaplex = "daplex"
	LangSQL    = "sql"
	LangDLI    = "dli"
	LangABDL   = "abdl"
)

// languages lists the five language interfaces.
var languages = [...]string{LangDML, LangDaplex, LangSQL, LangDLI, LangABDL}

// stmtMetrics holds the metric handles every statement of one language on one
// database charges. They are resolved once, when the database is registered:
// a registry lookup sorts the labels, renders their signature and takes the
// family's lock, which is too much to pay per statement.
type stmtMetrics struct {
	requests, errors     *obs.Counter
	seconds              *obs.Histogram
	planHits, planMisses *obs.Counter // nil (no-op, not exported) with plan caching off
}

func newStmtMetrics(reg *obs.Registry, db, lang string, planCache bool) *stmtMetrics {
	dbL, langL := obs.L("db", db), obs.L("language", lang)
	m := &stmtMetrics{
		requests: reg.Counter("mlds_session_requests_total",
			"statements executed through the language interfaces", dbL, langL),
		errors: reg.Counter("mlds_session_errors_total",
			"statements that returned an error", dbL, langL),
		seconds: reg.Histogram("mlds_session_seconds",
			"wall-clock latency per statement", nil, dbL, langL),
	}
	if planCache {
		m.planHits = reg.Counter("mlds_plan_cache_hits_total",
			"statements served a cached parse", dbL, langL)
		m.planMisses = reg.Counter("mlds_plan_cache_misses_total",
			"statements parsed because no cached plan matched", dbL, langL)
	}
	return m
}

// Outcome is the unified result of one statement through any language
// interface. The language-specific payload lives in the matching field; the
// cross-language envelope (timing, trace, rendered display text) is always
// populated.
//
// Any *abdm.Record reachable from an Outcome (Kernel.Records is the common
// case) is the kernel's own row, shared with the store and with other
// sessions' results: read-only. Clone before Set.
type Outcome struct {
	Language string        // which interface executed the statement
	Text     string        // the statement, as submitted
	Code     wire.Code     // stable machine-readable error code (CodeOK on success)
	Rendered string        // KFS display rendering of the result
	Wall     time.Duration // wall-clock time of the whole request
	Sim      time.Duration // simulated kernel response time charged
	Trace    *obs.Span     // root request span; nil unless Config.Tracing

	DML    *kms.Outcome      // CODASYL-DML
	Rows   []dapkms.Row      // Daplex
	SQL    *relkms.ResultSet // SQL
	DLI    *hiekms.Outcome   // DL/I
	Kernel *kdb.Result       // raw ABDL

	// Watch is the live subscription a WATCH statement opened: the caller
	// owns it and must Close it. Nil for every other statement.
	Watch *cdc.Watcher
}

// Session is one user's connection to a database through one language
// interface. All five session types implement it, so callers (the REPL, the
// experiments, load generators) need not switch over concrete types.
//
// Every session is transactional. With no transaction open, each statement
// runs in its own implicit transaction committed as the statement returns
// (auto-commit). Begin — or the statements BEGIN WORK / START TRANSACTION —
// opens an explicit transaction: subsequent statements accumulate strict-2PL
// locks and buffered undo until Commit / Rollback (COMMIT [WORK],
// ROLLBACK [WORK], ABORT). A deadlock or lock-timeout abort by the
// transaction manager surfaces as a *txn.AbortedError and closes the
// transaction; the session must Begin anew.
type Session interface {
	Execute(text string) (*Outcome, error)
	Close() error
	Language() string

	// Begin opens an explicit transaction; it fails if one is already open.
	Begin() error
	// BeginSnapshot opens an explicit read-only transaction pinned at the
	// current commit epoch (the statement form is BEGIN WORK READ ONLY):
	// its reads are lock-free against the pinned snapshot, and mutations
	// fail with txn.ErrReadOnly. End it with Commit or Rollback.
	BeginSnapshot() error
	// Commit commits the open explicit transaction.
	Commit() error
	// Rollback aborts the open explicit transaction, undoing its effects.
	Rollback() error
	// InTxn reports whether an explicit transaction is open.
	InTxn() bool

	// Watch opens a change subscription on the session's database: the
	// returned watcher's channel delivers a snapshot-consistent initial load
	// followed by exactly the changes committed after that snapshot, in
	// commit order. The query is a single-file SQL SELECT, optionally
	// prefixed with WATCH — the same text the WATCH statement accepts in
	// every language. The caller owns the watcher and must Close it.
	Watch(query string) (*cdc.Watcher, error)
}

// SessionOption configures a session at open time.
type SessionOption func(*txnState)

// SnapshotSession makes every implicit (auto-commit) statement of the
// session run inside its own read-only snapshot transaction: reads never
// take locks and never wait on writers, and mutations fail with
// txn.ErrReadOnly. Explicit BEGIN/BEGIN WORK READ ONLY still work as usual.
func SnapshotSession() SessionOption {
	return func(ts *txnState) { ts.snapMode = true }
}

// Open opens a session on the named database in the given language. This is
// the one session constructor: local callers, the REPL and the network
// serving tier all come through here. The language is matched
// case-insensitively and accepts the common aliases ("dml", "codasyl",
// "codasyl-dml"; "daplex"; "sql"; "dli", "dl/i", "dl1"; "abdl"). An
// unrecognised name fails wrapping ErrUnknownLanguage.
func (s *System) Open(dbname, language string, opts ...SessionOption) (Session, error) {
	switch CanonLanguage(language) {
	case LangDML:
		return s.openDML(dbname, opts...)
	case LangDaplex:
		return s.openDaplex(dbname, opts...)
	case LangSQL:
		return s.openSQL(dbname, opts...)
	case LangDLI:
		return s.openDLI(dbname, opts...)
	case LangABDL:
		return s.openABDL(dbname, opts...)
	default:
		return nil, fmt.Errorf("%w: %q (want dml, daplex, sql, dli or abdl)", ErrUnknownLanguage, language)
	}
}

// CanonLanguage normalises a language name or alias to its canonical
// Lang* constant, or "" if unrecognised.
func CanonLanguage(language string) string {
	switch strings.ToLower(strings.TrimSpace(language)) {
	case "dml", "codasyl", "codasyl-dml":
		return LangDML
	case "daplex":
		return LangDaplex
	case "sql":
		return LangSQL
	case "dli", "dl/i", "dl1", "dl/1":
		return LangDLI
	case "abdl":
		return LangABDL
	}
	return ""
}

// txnState carries a session's open explicit transaction. It is embedded in
// every session type, so the Session transaction methods are written once.
type txnState struct {
	db *Database
	// snapMode runs every implicit statement in its own read-only snapshot
	// transaction (SnapshotSession).
	snapMode bool
	mu       sync.Mutex
	tx       *txn.Txn
}

// apply applies session options; the openers call it on the embedded state.
func (s *txnState) apply(opts []SessionOption) {
	for _, o := range opts {
		o(s)
	}
}

// current returns the open explicit transaction, if any.
func (s *txnState) current() *txn.Txn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx
}

// clearIf forgets tx if it is still the session's open transaction — used
// after the manager rolled it back (deadlock victim, lock timeout).
func (s *txnState) clearIf(tx *txn.Txn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == tx {
		s.tx = nil
	}
}

// Begin opens an explicit transaction on the session.
func (s *txnState) Begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		return fmt.Errorf("core: transaction %d already open (COMMIT or ROLLBACK first)", s.tx.ID())
	}
	s.tx = s.db.Ctrl.Txns().Begin()
	return nil
}

// BeginSnapshot opens an explicit read-only snapshot transaction.
func (s *txnState) BeginSnapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		return fmt.Errorf("core: transaction %d already open (COMMIT or ROLLBACK first)", s.tx.ID())
	}
	s.tx = s.db.Ctrl.Txns().BeginSnapshot()
	return nil
}

// Commit commits the session's open explicit transaction.
func (s *txnState) Commit() error {
	s.mu.Lock()
	tx := s.tx
	s.tx = nil
	s.mu.Unlock()
	if tx == nil {
		return ErrNoTxn
	}
	return s.db.Ctrl.Txns().Commit(tx)
}

// Rollback aborts the session's open explicit transaction.
func (s *txnState) Rollback() error {
	s.mu.Lock()
	tx := s.tx
	s.tx = nil
	s.mu.Unlock()
	if tx == nil {
		return ErrNoTxn
	}
	return s.db.Ctrl.Txns().Abort(tx)
}

// InTxn reports whether an explicit transaction is open.
func (s *txnState) InTxn() bool { return s.current() != nil }

// endTxn closes any open transaction when the session closes: an abandoned
// transaction must not keep its locks.
func (s *txnState) endTxn() error {
	s.mu.Lock()
	tx := s.tx
	s.tx = nil
	s.mu.Unlock()
	if tx == nil {
		return nil
	}
	return s.db.Ctrl.Txns().Abort(tx)
}

// txnVerb recognises the transaction-control statements every language
// interface accepts, normalising case, interior whitespace and a trailing
// semicolon.
func txnVerb(text string) (string, bool) {
	s := strings.TrimSpace(text)
	s = strings.TrimSpace(strings.TrimSuffix(s, ";"))
	switch strings.ToUpper(strings.Join(strings.Fields(s), " ")) {
	case "BEGIN", "BEGIN WORK", "BEGIN TRANSACTION", "START TRANSACTION":
		return "begin", true
	case "BEGIN READ ONLY", "BEGIN WORK READ ONLY",
		"BEGIN TRANSACTION READ ONLY", "START TRANSACTION READ ONLY":
		return "begin-ro", true
	case "COMMIT", "COMMIT WORK":
		return "commit", true
	case "ROLLBACK", "ROLLBACK WORK", "ABORT":
		return "rollback", true
	}
	return "", false
}

// control applies one transaction-control verb.
func (s *txnState) control(verb string, out *Outcome) error {
	var err error
	switch verb {
	case "begin":
		err = s.Begin()
	case "begin-ro":
		err = s.BeginSnapshot()
	case "commit":
		err = s.Commit()
	case "rollback":
		err = s.Rollback()
	}
	if err == nil {
		out.Rendered = verb
	}
	return err
}

// maxStatementRetries bounds the automatic re-execution of a single
// statement whose implicit transaction was chosen as a deadlock victim.
// Each retry runs under a fresh — and therefore youngest — transaction, so
// under sustained contention the same statement can be re-victimized;
// exponential backoff breaks that livelock.
const maxStatementRetries = 8

// execInTxn runs the statement inside the session's transaction: the open
// explicit transaction if there is one, otherwise a fresh implicit
// transaction committed (or, on error, rolled back) as the statement ends.
//
// An implicit transaction IS the statement, so when the manager aborts it —
// deadlock victim or lock timeout — the store is back to the statement's
// start and the statement simply retries under a new transaction, invisible
// to the caller. An explicit transaction spans statements the session has
// already seen succeed, so its abort must surface: the error is returned
// (*txn.AbortedError) and the session's handle cleared so the next
// statement starts clean.
func (db *Database) execInTxn(ctx context.Context, ts *txnState, out *Outcome, exec func(ctx context.Context, out *Outcome) error) error {
	if ts == nil {
		return exec(ctx, out)
	}
	if tx := ts.current(); tx != nil {
		err := exec(txn.NewContext(ctx, tx), out)
		var ae *txn.AbortedError
		if errors.As(err, &ae) {
			ts.clearIf(tx)
		}
		return err
	}
	if ts.snapMode {
		// A snapshot session runs each implicit statement in its own
		// read-only snapshot transaction: lock-free, so never a deadlock
		// victim — no retry loop. Commit just unregisters the snapshot.
		tx := db.Ctrl.Txns().BeginSnapshot()
		err := exec(txn.NewContext(ctx, tx), out)
		if cerr := db.Ctrl.Txns().Commit(tx); err == nil {
			err = cerr
		}
		return err
	}
	var err error
	for attempt := 0; ; attempt++ {
		tx := db.Ctrl.Txns().Begin()
		err = exec(txn.NewContext(ctx, tx), out)
		var ae *txn.AbortedError
		if errors.As(err, &ae) {
			// Already rolled back by the manager; retry the statement.
			if attempt < maxStatementRetries {
				time.Sleep(time.Duration(1<<attempt) * time.Millisecond)
				continue
			}
			return err
		}
		if err != nil {
			db.Ctrl.Txns().Abort(tx)
			return err
		}
		return db.Ctrl.Txns().Commit(tx)
	}
}

// run executes one statement through the observability envelope shared by
// every session type: it starts the root "request" span when tracing is on,
// times the statement, charges the session metrics, and feeds the slow log.
// exec fills the outcome's language-specific payload and Rendered text.
// Transaction-control statements (BEGIN WORK, COMMIT, ROLLBACK, …) are
// intercepted here — before any language parser — so all five interfaces
// share one spelling; everything else executes inside the session's
// transaction via execInTxn.
func (db *Database) run(ts *txnState, lang, text string, exec func(ctx context.Context, out *Outcome) error) (*Outcome, error) {
	ctx := context.Background()
	out := &Outcome{Language: lang, Text: text}
	var root *obs.Span
	if db.tracing {
		ctx, root = obs.NewTrace(ctx, "request")
		root.SetAttr("db", db.Name)
		root.SetAttr("language", lang)
		out.Trace = root
	}
	start := time.Now()
	simBefore := db.Ctrl.SimTime()
	var err error
	if verb, ok := txnVerb(text); ok && ts != nil {
		err = ts.control(verb, out)
	} else if wv, arg, ok := watchVerb(text); ok {
		err = db.watchControl(wv, arg, out)
	} else {
		err = db.execInTxn(ctx, ts, out, exec)
	}
	out.Wall = time.Since(start)
	out.Code = CodeOf(err)
	out.Sim = db.Ctrl.SimTime() - simBefore
	root.AddSim(out.Sim)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()

	m := db.stmt[lang]
	m.requests.Inc()
	if err != nil {
		m.errors.Inc()
	}
	m.seconds.Observe(out.Wall.Seconds())
	if db.slow.Record(obs.SlowEntry{DB: db.Name, Language: lang, Text: text, Wall: out.Wall, Sim: out.Sim}) {
		db.reg.Counter("mlds_slow_requests_total",
			"statements at or above the slow threshold", obs.L("db", db.Name)).Inc()
	}
	return out, err
}

// plan resolves the parsed form of a statement through the system's plan
// cache: statements sharing a language and normalized shape parse once and
// reuse the AST. Every kernel mapping system treats its ASTs as read-only,
// so a cached plan is safe to share across sessions. With caching disabled
// (a nil cache) every statement parses.
func plan[T any](ctx context.Context, db *Database, lang, text string, parse func(string) (T, error)) (T, error) {
	_, pspan := obs.StartSpan(ctx, "parse")
	defer pspan.End()
	key := plancache.Key(lang, text)
	if v, ok := db.plans.Get(key); ok {
		pspan.SetAttr("plan", "hit")
		db.stmt[lang].planHits.Inc()
		return v.(T), nil
	}
	db.stmt[lang].planMisses.Inc()
	st, err := parse(text)
	if err != nil {
		return st, &ParseError{Err: err}
	}
	db.plans.Put(key, st)
	return st, nil
}

// Execute parses and runs one DML statement.
func (sess *DMLSession) Execute(text string) (*Outcome, error) {
	return sess.DB.run(&sess.txnState, LangDML, text, func(ctx context.Context, out *Outcome) error {
		st, err := plan(ctx, sess.DB, LangDML, text, codasyl.ParseStmt)
		if err != nil {
			return err
		}
		tctx, tspan := obs.StartSpan(ctx, "kms.translate")
		dmlOut, err := sess.Tr.ExecCtx(tctx, st)
		tspan.End()
		out.DML = dmlOut
		if err != nil {
			return err
		}
		_, fspan := obs.StartSpan(ctx, "kfs.format")
		out.Rendered = kfs.FormatOutcome(dmlOut, sess.Tr.Schema())
		fspan.End()
		return nil
	})
}

// RunScript parses and runs a transaction script (statements plus PERFORM
// loops), returning the typed outcome of every executed statement.
func (sess *DMLSession) RunScript(text string) ([]*kms.Outcome, error) {
	script, err := codasyl.ParseScript(text)
	if err != nil {
		return nil, err
	}
	return sess.Tr.ExecScript(script)
}

// Close releases the session, rolling back any open transaction.
func (sess *DMLSession) Close() error { return sess.endTxn() }

// Language reports the session's language interface.
func (sess *DMLSession) Language() string { return LangDML }

// Execute parses and runs one Daplex DML statement.
func (sess *DaplexSession) Execute(text string) (*Outcome, error) {
	return sess.DB.run(&sess.txnState, LangDaplex, text, func(ctx context.Context, out *Outcome) error {
		st, err := plan(ctx, sess.DB, LangDaplex, text, daplex.ParseDML)
		if err != nil {
			return err
		}
		tctx, tspan := obs.StartSpan(ctx, "kms.translate")
		rows, err := sess.If.ExecCtx(tctx, st)
		tspan.End()
		out.Rows = rows
		if err != nil {
			return err
		}
		_, fspan := obs.StartSpan(ctx, "kfs.format")
		if len(rows) > 0 {
			out.Rendered = kfs.FormatRowsAuto(rows)
		} else {
			out.Rendered = "ok"
		}
		fspan.End()
		return nil
	})
}

// Close releases the session, rolling back any open transaction.
func (sess *DaplexSession) Close() error { return sess.endTxn() }

// Language reports the session's language interface.
func (sess *DaplexSession) Language() string { return LangDaplex }

// Execute parses and runs one SQL statement.
func (sess *SQLSession) Execute(text string) (*Outcome, error) {
	return sess.DB.run(&sess.txnState, LangSQL, text, func(ctx context.Context, out *Outcome) error {
		st, err := plan(ctx, sess.DB, LangSQL, text, sql.Parse)
		if err != nil {
			return err
		}
		tctx, tspan := obs.StartSpan(ctx, "kms.translate")
		rs, err := sess.If.ExecCtx(tctx, st)
		tspan.End()
		out.SQL = rs
		if err != nil {
			return err
		}
		_, fspan := obs.StartSpan(ctx, "kfs.format")
		out.Rendered = kfs.FormatResultSet(rs)
		fspan.End()
		return nil
	})
}

// Close releases the session, rolling back any open transaction.
func (sess *SQLSession) Close() error { return sess.endTxn() }

// Language reports the session's language interface.
func (sess *SQLSession) Language() string { return LangSQL }

// Execute parses and runs one DL/I call.
func (sess *DLISession) Execute(text string) (*Outcome, error) {
	return sess.DB.run(&sess.txnState, LangDLI, text, func(ctx context.Context, out *Outcome) error {
		call, err := plan(ctx, sess.DB, LangDLI, text, dli.Parse)
		if err != nil {
			return err
		}
		tctx, tspan := obs.StartSpan(ctx, "kms.translate")
		res, err := sess.If.ExecCtx(tctx, call)
		tspan.End()
		out.DLI = res
		if err != nil {
			return err
		}
		_, fspan := obs.StartSpan(ctx, "kfs.format")
		out.Rendered = kfs.FormatDLI(res)
		fspan.End()
		return nil
	})
}

// Close releases the session, rolling back any open transaction.
func (sess *DLISession) Close() error { return sess.endTxn() }

// Language reports the session's language interface.
func (sess *DLISession) Language() string { return LangDLI }

// ABDLSession is a raw attribute-based session: statements are single ABDL
// requests executed directly against the kernel — the fifth language
// interface of the paper's Figure 1.2.
type ABDLSession struct {
	DB *Database
	txnState
}

// OpenABDL opens a raw ABDL session.
//
// Deprecated: use Open(dbname, "abdl", opts...); this wrapper remains for
// callers that need the concrete *ABDLSession.
func (s *System) OpenABDL(dbname string, opts ...SessionOption) (*ABDLSession, error) {
	return s.openABDL(dbname, opts...)
}

// openABDL opens a raw ABDL session. Every database model is served: ABDL
// addresses the kernel representation beneath all of them.
func (s *System) openABDL(dbname string, opts ...SessionOption) (*ABDLSession, error) {
	db, err := s.lookup(dbname)
	if err != nil {
		return nil, err
	}
	sess := &ABDLSession{DB: db, txnState: txnState{db: db}}
	sess.apply(opts)
	return sess, nil
}

// Execute parses and runs one ABDL request.
func (sess *ABDLSession) Execute(text string) (*Outcome, error) {
	return sess.DB.run(&sess.txnState, LangABDL, text, func(ctx context.Context, out *Outcome) error {
		req, err := plan(ctx, sess.DB, LangABDL, text, abdl.Parse)
		if err != nil {
			return err
		}
		res, err := sess.DB.Ctrl.ExecCtx(ctx, req)
		out.Kernel = res
		if err != nil {
			return err
		}
		_, fspan := obs.StartSpan(ctx, "kfs.format")
		out.Rendered = kfs.FormatResult(res)
		fspan.End()
		return nil
	})
}

// Close releases the session, rolling back any open transaction.
func (sess *ABDLSession) Close() error { return sess.endTxn() }

// Language reports the session's language interface.
func (sess *ABDLSession) Language() string { return LangABDL }
