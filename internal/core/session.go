package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/cdc"
	"mlds/internal/codasyl"
	"mlds/internal/currency"
	"mlds/internal/dapkms"
	"mlds/internal/daplex"
	"mlds/internal/dli"
	"mlds/internal/hiekms"
	"mlds/internal/kc"
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

// plug runs one statement of a session's language: parse (through the plan
// cache), translate and execute through the language's kernel mapping
// system, format through the kernel formatting system — filling the
// outcome's payload and Rendered text. A session binds its plug once, when
// it opens.
type plug func(ctx context.Context, text string, out *Outcome) error

// language is one row of the language table: a front end over the shared
// kernel controller and kernel.
type language struct {
	name    string   // canonical name, reported by Session.Language
	aliases []string // accepted spellings, lower case
	models  []Model  // database models it serves; nil serves every model
	bind    func(s *session) plug
}

// languages is the language table. A language interface is one row: its
// parser, its kernel mapping system and its formatter, bound into a plug.
var languages = [...]language{
	{LangDML, []string{"dml", "codasyl", "codasyl-dml"}, []Model{NetworkModel, FunctionalModel}, bindDML},
	{LangDaplex, []string{"daplex"}, []Model{FunctionalModel}, func(s *session) plug {
		db := s.db
		return bind(s, "kms.translate", daplex.ParseDML, dapkms.New(db.Mapping, db.AB, db.Ctrl).ExecCtx,
			func(out *Outcome, rows []dapkms.Row) { out.Rows = rows }, formatRows)
	}},
	{LangSQL, []string{"sql"}, []Model{RelationalModel}, func(s *session) plug {
		return bind(s, "kms.translate", sql.Parse, relkms.New(s.db.Rel, s.db.Ctrl).ExecCtx,
			func(out *Outcome, rs *relkms.ResultSet) { out.SQL = rs }, kfs.FormatResultSet)
	}},
	{LangDLI, []string{"dli", "dl/i", "dl1", "dl/1"}, []Model{HierarchicalModel}, func(s *session) plug {
		return bind(s, "kms.translate", dli.Parse, hiekms.New(s.db.Hie, s.db.Ctrl).ExecCtx,
			func(out *Outcome, res *hiekms.Outcome) { out.DLI = res }, kfs.FormatDLI)
	}},
	// ABDL is the kernel's own language: no mapping system, so no
	// translate span — requests go straight to the controller.
	{LangABDL, []string{"abdl"}, nil, func(s *session) plug {
		return bind(s, "", abdl.Parse, s.db.Ctrl.ExecCtx,
			func(out *Outcome, res *kdb.Result) { out.Kernel = res }, kfs.FormatResult)
	}},
}

// bindDML binds a CODASYL-DML session: natively to a network database, or
// to a functional database through its transformed schema. The translator
// holds the run-unit's currency, which the session exposes through CIT.
func bindDML(s *session) plug {
	db := s.db
	var tr *kms.Translator
	if db.Model == FunctionalModel {
		tr = kms.NewFunctional(db.Mapping, db.AB, db.Ctrl)
	} else {
		tr = kms.NewNetwork(db.Net, db.AB, db.Ctrl)
	}
	s.cit = tr.CIT()
	return bind(s, "kms.translate", codasyl.ParseStmt, tr.ExecCtx,
		func(out *Outcome, o *kms.Outcome) { out.DML = o },
		func(o *kms.Outcome) string { return kfs.FormatOutcome(o, tr.Schema()) })
}

// formatRows renders a Daplex result; statements other than FOR EACH
// return no rows.
func formatRows(rows []dapkms.Row) string {
	if len(rows) == 0 {
		return "ok"
	}
	return kfs.FormatRowsAuto(rows)
}

// bind builds a plug from a language's parser, its mapping system's
// statement entry point, the setter that files the result in the Outcome and
// its formatter. span names the trace span around the mapping system; ""
// opens none.
func bind[S, R any](s *session, span string, parse func(string) (S, error),
	exec func(context.Context, S) (R, error), set func(*Outcome, R), format func(R) string) plug {
	return func(ctx context.Context, text string, out *Outcome) error {
		st, err := plan(ctx, s, text, parse)
		if err != nil {
			return err
		}
		tctx, tspan := ctx, (*obs.Span)(nil)
		if span != "" {
			tctx, tspan = obs.StartSpan(ctx, span)
		}
		res, err := exec(tctx, st)
		tspan.End()
		set(out, res)
		if err != nil {
			return err
		}
		_, fspan := obs.StartSpan(ctx, "kfs.format")
		out.Rendered = format(res)
		fspan.End()
		return nil
	}
}

// lookupLanguage finds a language's row by any of its spellings,
// case-insensitively.
func lookupLanguage(language string) *language {
	name := strings.ToLower(strings.TrimSpace(language))
	for i := range languages {
		if slices.Contains(languages[i].aliases, name) {
			return &languages[i]
		}
	}
	return nil
}

// CanonLanguage normalises a language name or alias to its canonical
// Lang* constant, or "" if unrecognised.
func CanonLanguage(language string) string {
	if l := lookupLanguage(language); l != nil {
		return l.name
	}
	return ""
}

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
// interface. Local sessions (System.Open) and remote ones (client.Open)
// implement it, so callers (the REPL, the experiments, load generators) need
// not care which language or which side of the network they talk to.
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
type SessionOption func(*session)

// SnapshotSession makes every implicit (auto-commit) statement of the
// session run inside its own read-only snapshot transaction: reads never
// take locks and never wait on writers, and mutations fail with
// txn.ErrReadOnly. Explicit BEGIN/BEGIN WORK READ ONLY still work as usual.
func SnapshotSession() SessionOption {
	return func(s *session) { s.snapMode = true }
}

// session is the one local Session: a language's plug bound to a database,
// plus the user's open explicit transaction.
type session struct {
	db   *Database
	lang string
	exec plug
	m    *stmtMetrics
	cit  *currency.CIT // the run-unit's currency (CODASYL-DML sessions only)
	// snapMode runs every implicit statement in its own read-only snapshot
	// transaction (SnapshotSession).
	snapMode bool

	mu sync.Mutex
	tx *txn.Txn
}

// Open opens a session on the named database in the given language. This is
// the one session constructor: local callers, the REPL and the network
// serving tier all come through here. The language is matched
// case-insensitively and accepts the common aliases ("dml", "codasyl",
// "codasyl-dml"; "daplex"; "sql"; "dli", "dl/i", "dl1"; "abdl"). An
// unrecognised name fails wrapping ErrUnknownLanguage, a missing database
// ErrNoDatabase, and a database whose model the language cannot serve
// ErrWrongModel.
func (s *System) Open(dbname, language string, opts ...SessionOption) (Session, error) {
	l := lookupLanguage(language)
	if l == nil {
		return nil, fmt.Errorf("%w: %q (want dml, daplex, sql, dli or abdl)", ErrUnknownLanguage, language)
	}
	db, err := s.lookup(dbname)
	if err != nil {
		return nil, err
	}
	if l.models != nil && !slices.Contains(l.models, db.Model) {
		return nil, fmt.Errorf("%w: the %s interface cannot serve a %s database", ErrWrongModel, l.name, db.Model)
	}
	sess := &session{db: db, lang: l.name, m: db.stmt[l.name]}
	for _, o := range opts {
		o(sess)
	}
	sess.exec = l.bind(sess)
	return sess, nil
}

// CIT returns the currency indicator table of a local CODASYL-DML session's
// run-unit, or nil for any other session.
func CIT(sess Session) *currency.CIT {
	if s, ok := sess.(*session); ok {
		return s.cit
	}
	return nil
}

// Language reports the session's language interface.
func (s *session) Language() string { return s.lang }

// Close releases the session, rolling back any open transaction: an
// abandoned transaction must not keep its locks.
func (s *session) Close() error {
	if tx := s.take(); tx != nil {
		return s.db.Ctrl.Txns().Abort(tx)
	}
	return nil
}

// current returns the open explicit transaction, if any.
func (s *session) current() *txn.Txn {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.tx
}

// take removes and returns the open explicit transaction, if any.
func (s *session) take() *txn.Txn {
	s.mu.Lock()
	defer s.mu.Unlock()
	tx := s.tx
	s.tx = nil
	return tx
}

// clearIf forgets tx if it is still the session's open transaction — used
// after the manager rolled it back (deadlock victim, lock timeout).
func (s *session) clearIf(tx *txn.Txn) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == tx {
		s.tx = nil
	}
}

// begin opens an explicit transaction with start, unless one is open.
func (s *session) begin(start func() *txn.Txn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx != nil {
		return fmt.Errorf("core: transaction %d already open (COMMIT or ROLLBACK first)", s.tx.ID())
	}
	s.tx = start()
	return nil
}

// Begin opens an explicit transaction on the session.
func (s *session) Begin() error { return s.begin(s.db.Ctrl.Txns().Begin) }

// BeginSnapshot opens an explicit read-only snapshot transaction.
func (s *session) BeginSnapshot() error { return s.begin(s.db.Ctrl.Txns().BeginSnapshot) }

// Commit commits the session's open explicit transaction.
func (s *session) Commit() error {
	tx := s.take()
	if tx == nil {
		return ErrNoTxn
	}
	return s.db.Ctrl.Txns().Commit(tx)
}

// Rollback aborts the session's open explicit transaction.
func (s *session) Rollback() error {
	tx := s.take()
	if tx == nil {
		return ErrNoTxn
	}
	return s.db.Ctrl.Txns().Abort(tx)
}

// InTxn reports whether an explicit transaction is open.
func (s *session) InTxn() bool { return s.current() != nil }

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
func (s *session) control(verb string, out *Outcome) error {
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

// execInTxn runs the statement's plug inside the session's transaction: the
// open explicit transaction if there is one, otherwise a fresh implicit
// transaction committed (or, on error, rolled back) as the statement ends.
//
// An implicit transaction IS the statement, so when the manager aborts it —
// deadlock victim or lock timeout — the store is back to the statement's
// start and the statement simply retries under a new transaction, invisible
// to the caller. An explicit transaction spans statements the session has
// already seen succeed, so its abort must surface: the error is returned
// (*txn.AbortedError) and the session's handle cleared so the next
// statement starts clean.
func (s *session) execInTxn(ctx context.Context, text string, out *Outcome) error {
	txns := s.db.Ctrl.Txns()
	if tx := s.current(); tx != nil {
		err := s.exec(txn.NewContext(ctx, tx), text, out)
		var ae *txn.AbortedError
		if errors.As(err, &ae) {
			s.clearIf(tx)
		}
		return err
	}
	if s.snapMode {
		// A snapshot session runs each implicit statement in its own
		// read-only snapshot transaction: lock-free, so never a deadlock
		// victim — no retry loop. Commit just unregisters the snapshot.
		tx := txns.BeginSnapshot()
		err := s.exec(txn.NewContext(ctx, tx), text, out)
		if cerr := txns.Commit(tx); err == nil {
			err = cerr
		}
		return err
	}
	var err error
	for attempt := 0; ; attempt++ {
		tx := txns.Begin()
		err = s.exec(txn.NewContext(ctx, tx), text, out)
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
			txns.Abort(tx)
			return err
		}
		return txns.Commit(tx)
	}
}

// Execute runs one statement through the observability envelope every
// language shares: it starts the root "request" span when tracing is on,
// times the statement, charges the session metrics, and feeds the slow log.
// Transaction-control statements (BEGIN WORK, COMMIT, ROLLBACK, …) and the
// change-capture verbs are intercepted here — before any language parser —
// so all five interfaces share one spelling; everything else runs the
// session's plug inside its transaction via execInTxn.
func (s *session) Execute(text string) (*Outcome, error) {
	db := s.db
	ctx := context.Background()
	out := &Outcome{Language: s.lang, Text: text}
	var root *obs.Span
	if db.tracing {
		ctx, root = obs.NewTrace(ctx, "request")
		root.SetAttr("db", db.Name)
		root.SetAttr("language", s.lang)
		out.Trace = root
	}
	start := time.Now()
	var err error
	if verb, ok := txnVerb(text); ok {
		err = s.control(verb, out)
	} else if wv, arg, ok := watchVerb(text); ok {
		err = db.watchControl(wv, arg, out)
	} else {
		// Charge the statement only its own kernel requests, not those of
		// sessions running at the same time.
		meter := kc.NewSimMeter(ctx)
		err = s.execInTxn(meter, text, out)
		out.Sim = meter.Sim()
	}
	out.Wall = time.Since(start)
	out.Code = CodeOf(err)
	root.AddSim(out.Sim)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	root.End()

	s.m.requests.Inc()
	if err != nil {
		s.m.errors.Inc()
	}
	s.m.seconds.Observe(out.Wall.Seconds())
	if db.slow.Record(obs.SlowEntry{DB: db.Name, Language: s.lang, Text: text, Wall: out.Wall, Sim: out.Sim}) {
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
func plan[T any](ctx context.Context, s *session, text string, parse func(string) (T, error)) (T, error) {
	_, pspan := obs.StartSpan(ctx, "parse")
	defer pspan.End()
	key := plancache.Key(s.lang, text)
	if v, ok := s.db.plans.Get(key); ok {
		pspan.SetAttr("plan", "hit")
		s.m.planHits.Inc()
		return v.(T), nil
	}
	s.m.planMisses.Inc()
	st, err := parse(text)
	if err != nil {
		return st, &ParseError{Err: err}
	}
	s.db.plans.Put(key, st)
	return st, nil
}

// maxLoopIterations bounds PERFORM loops against scripts that never reach
// end-of-set.
const maxLoopIterations = 1_000_000

// RunScript runs a CODASYL-DML transaction script — one statement per line,
// with PERFORM UNTIL END-OF-SET ... END-PERFORM loops — on a local DML
// session, one Execute per statement: each statement joins the session's
// open transaction (or runs in its own implicit one) and is counted, traced
// and slow-logged like any other. A loop repeats its body until the body's
// final statement reports end-of-set (Outcome.DML.EndOfSet) — the
// conventional shape places the iterating FIND NEXT last, as the thesis's
// Chapter VI example does. End-of-set from earlier statements is recorded in
// their outcomes but does not end the loop (the host program inspects the
// status, as a COBOL run-unit would). It returns the outcome of every
// executed statement in order, the failing one included.
func RunScript(sess Session, text string) ([]*Outcome, error) {
	script, err := codasyl.ParseScript(text)
	if err != nil {
		return nil, err
	}
	var outs []*Outcome
	var run func(nodes []codasyl.Node) (lastEnd bool, err error)
	run = func(nodes []codasyl.Node) (bool, error) {
		lastEnd := false
		for _, n := range nodes {
			switch v := n.(type) {
			case codasyl.StmtNode:
				out, err := sess.Execute(v.Stmt.String())
				if out != nil {
					outs = append(outs, out)
				}
				if err != nil {
					return false, fmt.Errorf("%s: %w", v.Stmt, err)
				}
				lastEnd = out.DML != nil && out.DML.EndOfSet
			case codasyl.Loop:
				for i := 0; ; i++ {
					if i > maxLoopIterations {
						return false, fmt.Errorf("core: PERFORM loop exceeded %d iterations", maxLoopIterations)
					}
					end, err := run(v.Body)
					if err != nil {
						return false, err
					}
					if end {
						break
					}
				}
				lastEnd = false
			}
		}
		return lastEnd, nil
	}
	_, err = run(script)
	return outs, err
}
