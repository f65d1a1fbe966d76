package bench

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/codasyl"
	"mlds/internal/core"
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

// Peeling. A layer's self time is the time of a call into it minus the time
// of the calls it makes into the next layer, on the same input. The rig
// measures it from outside by entering the pipeline at each level in turn
// with one statement: the KMS interface with the parsed statement, the
// kernel controller with the ABDL requests that translation produced
// (captured with Controller.StartTrace), the multi-backend kernel with each
// request, and each partition's store with it. Then it runs the statement
// on an in-process session and on a remote one.
//
// Every statement of the workloads is idempotent (reads, and writes of
// absolute values), so running it once per level leaves the state the
// oracle expects. Reads are peeled to the bottom; a mutation is entered no
// lower than the controller, because below it there is no transaction and
// running it there would bypass the journal. A statement whose session is
// stateful (CODASYL currency, DL/I position) is run once on each of two
// rig-owned interfaces, never twice on one.
//
// The first execution below the session pays for whatever the caches miss;
// the later ones find the caches warm. The difference between the first and
// the repeated KMS-level execution is that cache-miss cost, and it is added
// to the store's time, where the misses happen.

// peelLang is one language's entry points.
type peelLang struct {
	db     *core.Database
	parser string // metric prefix of the parser: sql, daplex, codasyl, dli, abdl
	kms    string // metric prefix of the mapping system; "" for ABDL, which has none
	core   string // name of the language in the core.* metrics
	parse  func(text string) (any, error)
	// first and again are two interfaces of the same mapping system; each
	// sees every peeled statement once.
	first, again func(ctx context.Context, ast any) (any, error)
	// format renders a payload through KFS and counts its rows.
	format func(payload any) (string, int)
}

// samples collects the traced run's timings, in nanoseconds unless named
// otherwise.
type samples struct {
	ns     map[string][]int64
	values map[string][]float64
	budget map[string][]layerTimes // per operation kind
	cross  map[string][2][]int64   // layer -> peeled, span-derived
	errors int
	stmts  int
}

// layerTimes is one operation's time by layer, summed over its statements.
type layerTimes [numLayers]int64

const (
	layerServer = iota // server, client and wire: remote minus in-process
	layerCore          // the session envelope
	layerParse         // parser or plan-cache lookup
	layerKMS           // kernel mapping system (translation)
	layerKC            // kernel controller and transactions (mutations: and below)
	layerMBDS          // multi-backend fan-out and merge
	layerKDB           // partition store, pager included
	layerKFS           // formatting
	numLayers
)

var layerNames = [numLayers]string{"client+server+wire", "core", "parser/plancache", "KMS", "kc+txn", "mbds", "kdb+pager", "kfs"}

func newSamples() *samples {
	return &samples{ns: map[string][]int64{}, values: map[string][]float64{},
		budget: map[string][]layerTimes{}, cross: map[string][2][]int64{}}
}

func (s *samples) add(name string, d time.Duration) { s.ns[name] = append(s.ns[name], int64(d)) }

func (s *samples) addValue(name string, v float64) { s.values[name] = append(s.values[name], v) }

func (s *samples) addCross(layer string, peeled, spans time.Duration) {
	c := s.cross[layer]
	c[0] = append(c[0], int64(peeled))
	c[1] = append(c[1], int64(spans))
	s.cross[layer] = c
}

// peeler runs sampled operations level by level.
type peeler struct {
	b     *bed
	log   *spanLog
	langs map[string]*peelLang
	local map[string]core.Session
	plans *plancache.Cache // rig-owned, for timing the lookup
	s     *samples

	// warm is the last read request peeled, on warmDB: run once, untimed,
	// before an operation is timed.
	warm   *abdl.Request
	warmDB *core.Database
}

func newPeeler(b *bed, log *spanLog) (*peeler, error) {
	p := &peeler{b: b, log: log, langs: map[string]*peelLang{}, local: map[string]core.Session{},
		plans: plancache.New(0), s: newSamples()}
	for _, sp := range b.w.sessions() {
		db, ok := b.sys.Database(sp.db)
		if !ok {
			return nil, fmt.Errorf("no database %q", sp.db)
		}
		l, err := newPeelLang(sp.lang, db)
		if err != nil {
			return nil, err
		}
		p.langs[sp.lang] = l
		if p.local[sp.lang], err = b.sys.Open(sp.db, sp.lang); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *peeler) close() {
	for _, s := range p.local {
		_ = s.Close()
	}
}

func newPeelLang(lang string, db *core.Database) (*peelLang, error) {
	l := &peelLang{db: db}
	switch lang {
	case langSQL:
		a, c := relkms.New(db.Rel, db.Ctrl), relkms.New(db.Rel, db.Ctrl)
		l.parser, l.kms, l.core = "sql", "relkms", "sql"
		l.parse = func(t string) (any, error) { return sql.Parse(t) }
		l.first = func(ctx context.Context, ast any) (any, error) { return a.ExecCtx(ctx, ast.(sql.Stmt)) }
		l.again = func(ctx context.Context, ast any) (any, error) { return c.ExecCtx(ctx, ast.(sql.Stmt)) }
		l.format = func(v any) (string, int) {
			rs := v.(*relkms.ResultSet)
			return kfs.FormatResultSet(rs), len(rs.Rows)
		}
	case langDaplex:
		a, c := dapkms.New(db.Mapping, db.AB, db.Ctrl), dapkms.New(db.Mapping, db.AB, db.Ctrl)
		l.parser, l.kms, l.core = "daplex", "dapkms", "daplex"
		l.parse = func(t string) (any, error) { return daplex.ParseDML(t) }
		l.first = func(ctx context.Context, ast any) (any, error) { return a.ExecCtx(ctx, ast.(daplex.DMLStmt)) }
		l.again = func(ctx context.Context, ast any) (any, error) { return c.ExecCtx(ctx, ast.(daplex.DMLStmt)) }
		l.format = func(v any) (string, int) {
			rows := v.([]dapkms.Row)
			if len(rows) == 0 {
				return "ok", 0
			}
			return kfs.FormatRowsAuto(rows), len(rows)
		}
	case langDML:
		a, c := kms.NewFunctional(db.Mapping, db.AB, db.Ctrl), kms.NewFunctional(db.Mapping, db.AB, db.Ctrl)
		l.parser, l.kms, l.core = "codasyl", "kms", "dml"
		l.parse = func(t string) (any, error) { return codasyl.ParseStmt(t) }
		l.first = func(ctx context.Context, ast any) (any, error) { return a.ExecCtx(ctx, ast.(codasyl.Stmt)) }
		l.again = func(ctx context.Context, ast any) (any, error) { return c.ExecCtx(ctx, ast.(codasyl.Stmt)) }
		l.format = func(v any) (string, int) { return kfs.FormatOutcome(v.(*kms.Outcome), c.Schema()), 1 }
	case langDLI:
		a, c := hiekms.New(db.Hie, db.Ctrl), hiekms.New(db.Hie, db.Ctrl)
		l.parser, l.kms, l.core = "dli", "hiekms", "dli"
		l.parse = func(t string) (any, error) { return dli.Parse(t) }
		l.first = func(ctx context.Context, ast any) (any, error) { return a.ExecCtx(ctx, ast.(dli.Call)) }
		l.again = func(ctx context.Context, ast any) (any, error) { return c.ExecCtx(ctx, ast.(dli.Call)) }
		l.format = func(v any) (string, int) { return kfs.FormatDLI(v.(*hiekms.Outcome)), 1 }
	case langABDL:
		l.parser, l.core = "abdl", "abdl"
		l.parse = func(t string) (any, error) { return abdl.Parse(t) }
		exec := func(ctx context.Context, ast any) (any, error) { return db.Ctrl.ExecCtx(ctx, ast.(*abdl.Request)) }
		l.first, l.again = exec, exec
		l.format = func(v any) (string, int) {
			res := v.(*kdb.Result)
			return kfs.FormatResult(res), max(len(res.Records), len(res.Groups))
		}
	default:
		return nil, fmt.Errorf("no peel entry points for language %q", lang)
	}
	return l, nil
}

// Transaction-control statements, as the generators spell them. The session
// layer handles them before any parser; at the lower levels the rig opens
// and commits the matching transaction itself.
const (
	verbBegin   = "BEGIN WORK"
	verbBeginRO = "BEGIN WORK READ ONLY"
	verbCommit  = "COMMIT WORK"
)

func isVerb(text string) bool { return text == verbBegin || text == verbBeginRO || text == verbCommit }

// txnScope follows the transaction verbs of an operation at a level below
// the session: it yields the context each statement runs under.
type txnScope struct {
	mgr *txn.Manager
	tx  *txn.Txn
}

func (t *txnScope) verb(text string) error {
	switch text {
	case verbBegin:
		t.tx = t.mgr.Begin()
	case verbBeginRO:
		t.tx = t.mgr.BeginSnapshot()
	case verbCommit:
		tx := t.tx
		t.tx = nil
		return t.mgr.Commit(tx)
	}
	return nil
}

func (t *txnScope) ctx() context.Context {
	if t.tx == nil {
		return context.Background()
	}
	return txn.NewContext(context.Background(), t.tx)
}

// abandon rolls back whatever the scope left open.
func (t *txnScope) abandon() {
	if t.tx != nil {
		_ = t.mgr.Abort(t.tx)
		t.tx = nil
	}
}

// mallocs reads the process's exact allocation count. runtime.ReadMemStats
// stops the world and flushes the allocator's per-thread caches, so a call
// timed right after it pays to refill them: the rig counts allocations and
// measures self times in separate executions. Only the peel loop runs while
// it is used, so a difference is the measured call's own.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// stmtPeel is what the levels measured for one statement.
type stmtPeel struct {
	ast     any
	reqs    []*abdl.Request
	reads   int // requests peeled below the controller
	payload any

	parse, planGet                      time.Duration
	kmsFirst, kmsAgain                  time.Duration
	kcAll, kcReads                      time.Duration // controller time: all requests, and the peeled ones
	mbds, kdb                           time.Duration // summed over the peeled requests (kdb: slowest partition)
	kfs, session, remote                time.Duration
	firstAllocs, againAllocs, kdbAllocs uint64
	planHit                             bool
	trace                               *obs.Span
}

// isScan reports whether an operation kind reads by scanning or through a
// non-key index rather than by key.
func isScan(kind string) bool {
	return kind == "region" || kind == "readonly" || strings.HasSuffix(kind, ".heavy")
}

// peelOp runs one operation at every level and records the samples. The
// operation's own check runs on the remote replies, so a wrong answer at the
// top still fails the run.
//
// An operation is peeled either for time or, when countAllocs is set, for
// allocation counts: reading the exact count (runtime.ReadMemStats) stops
// the world and flushes the allocator's caches, and a call timed right after
// it pays to refill them, so the two never share an execution.
func (p *peeler) peelOp(u *user, o *op, countAllocs bool) error {
	lang := p.langs[o.stmts[0].lang]
	mgr := lang.db.Ctrl.Txns()
	st := make([]stmtPeel, len(o.stmts))
	// measure times fn, or counts its allocations.
	measure := func(fn func() error) (time.Duration, uint64, error) {
		if countAllocs {
			m0 := mallocs()
			err := fn()
			return 0, mallocs() - m0, err
		}
		t0 := time.Now()
		err := fn()
		return time.Since(t0), 0, err
	}
	if !countAllocs && p.warm != nil {
		// The previous operation may have ended on an allocation count;
		// one untimed request refills the allocator's caches.
		_, _ = p.warmDB.Ctrl.ExecCtx(context.Background(), p.warm)
	}

	// Level: parser, and the plan cache's lookup.
	for i := range o.stmts {
		s := &o.stmts[i]
		if isVerb(s.text) {
			continue
		}
		l := p.langs[s.lang]
		var err error
		d, allocs, _ := measure(func() error {
			st[i].ast, err = l.parse(s.text)
			return err
		})
		if err != nil {
			return fmt.Errorf("parse %q: %w", s.text, err)
		}
		st[i].parse = d
		if countAllocs {
			p.s.addValue(l.parser+".parse_allocs", float64(allocs))
			continue
		}
		p.s.add(l.parser+".parse_ns", d)
		p.plans.Put(plancache.Key(s.lang, s.text), st[i].ast)
		t0 := time.Now()
		_, _ = p.plans.Get(plancache.Key(s.lang, s.text))
		st[i].planGet = time.Since(t0)
		p.s.add("plancache.get_ns", st[i].planGet)
	}

	// eachStmt runs fn on every statement below the session, following the
	// operation's transaction verbs with a transaction of the rig's own.
	scope := &txnScope{mgr: mgr}
	defer scope.abandon()
	eachStmt := func(level string, fn func(i int, s *stmt, l *peelLang) error) error {
		for i := range o.stmts {
			s := &o.stmts[i]
			if isVerb(s.text) {
				if err := scope.verb(s.text); err != nil {
					return fmt.Errorf("%s at the %s level: %w", s.text, level, err)
				}
				continue
			}
			if err := fn(i, s, p.langs[s.lang]); err != nil {
				return fmt.Errorf("%s level, %q: %w", level, s.text, err)
			}
		}
		return nil
	}

	// Level: mapping system, first execution; capture the ABDL it emits.
	err := eachStmt("kms", func(i int, s *stmt, l *peelLang) error {
		ctrl := l.db.Ctrl
		ctrl.StartTrace()
		d, allocs, err := measure(func() error {
			_, err := l.first(scope.ctx(), st[i].ast)
			return err
		})
		texts := ctrl.Trace()
		ctrl.StopTrace()
		if err != nil {
			return err
		}
		st[i].kmsFirst, st[i].firstAllocs = d, allocs
		for _, t := range texts {
			req, err := abdl.Parse(t)
			if err != nil {
				return fmt.Errorf("captured request %q: %w", t, err)
			}
			st[i].reqs = append(st[i].reqs, req)
		}
		if l.kms != "" && !countAllocs {
			p.s.addValue(l.kms+".abdl_reqs_per_stmt", float64(len(texts)))
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Levels: controller, multi-backend kernel, partition stores.
	err = eachStmt("kc", func(i int, s *stmt, l *peelLang) error {
		for _, req := range st[i].reqs {
			// Once unmeasured: the first execution left the data caches
			// warm but not the processor's, and every later level would
			// look faster than this one.
			if _, err := l.db.Ctrl.ExecCtx(scope.ctx(), req); err != nil {
				return err
			}
			kc, _, err := measure(func() error {
				_, err := l.db.Ctrl.ExecCtx(scope.ctx(), req)
				return err
			})
			if err != nil {
				return err
			}
			st[i].kcAll += kc
			if req.Kind != abdl.Retrieve {
				continue
			}
			below := req
			if scope.tx != nil && scope.tx.ReadOnly() {
				// What the manager does for a snapshot read: pin the epoch.
				cp := *req
				cp.SnapEpoch = scope.tx.SnapshotEpoch()
				below = &cp
			}
			var res *kdb.Result
			mb, _, err := measure(func() error {
				var err error
				res, _, err = l.db.Kernel.ExecTimedCtx(context.Background(), below)
				return err
			})
			if err != nil {
				return err
			}
			var slowest time.Duration
			for _, store := range stores(l.db) {
				d, allocs, err := measure(func() error {
					_, err := store.Exec(below)
					return err
				})
				if err != nil {
					return err
				}
				slowest = max(slowest, d)
				st[i].kdbAllocs += allocs
			}
			st[i].reads++
			st[i].kcReads += kc
			st[i].mbds += mb
			st[i].kdb += slowest
			if countAllocs {
				continue
			}
			p.warm, p.warmDB = req, l.db
			p.s.add("kc.exec_self_us", kc-mb)
			p.s.add("mbds.exec_self_us", mb-slowest)
			p.s.addValue("kdb.examined", float64(res.Cost.RecordsExam))
			p.s.addValue("kdb.results", float64(max(len(res.Records), len(res.Groups), 1)))
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Level: mapping system again, caches warm; then the formatter.
	err = eachStmt("kms (again)", func(i int, s *stmt, l *peelLang) error {
		var payload any
		d, allocs, err := measure(func() error {
			var err error
			payload, err = l.again(scope.ctx(), st[i].ast)
			return err
		})
		if err != nil {
			return err
		}
		st[i].kmsAgain, st[i].againAllocs = d, allocs
		if countAllocs {
			return nil
		}
		t0 := time.Now()
		rendered, rows := l.format(payload)
		st[i].kfs = time.Since(t0)
		p.s.add("kfs.format_ns", st[i].kfs)
		p.s.addValue("kfs.bytes", float64(len(rendered)))
		p.s.addValue("kfs.rows", float64(max(rows, 1)))
		return nil
	})
	if err != nil {
		return err
	}

	// Level: in-process session (with the program's own span tree).
	for i := range o.stmts {
		s := &o.stmts[i]
		t0 := time.Now()
		out, err := p.local[s.lang].Execute(s.text)
		st[i].session = time.Since(t0)
		if err != nil {
			return fmt.Errorf("session %q: %w", s.text, err)
		}
		st[i].trace = out.Trace
		if ps := out.Trace.Find("parse"); ps != nil {
			st[i].planHit = ps.Attr("plan") == "hit"
		}
	}

	// Level: remote session over TCP, checked against the oracle.
	ctx := context.Background()
	for i := range o.stmts {
		s := &o.stmts[i]
		t0 := time.Now()
		out, err := u.sess[s.lang].ExecuteCtx(ctx, s.text)
		st[i].remote = time.Since(t0)
		if err != nil {
			return fmt.Errorf("remote %q: %w", s.text, err)
		}
		if s.check != nil {
			if err := s.check(out.Rendered); err != nil {
				return fmt.Errorf("remote %q: wrong reply: %w", s.text, err)
			}
		}
		if !countAllocs {
			p.wire(s, out.Rendered)
		}
	}
	if o.applied != nil {
		o.applied()
	}
	p.s.stmts += len(o.stmts)
	if countAllocs {
		p.recordAllocs(st)
	} else {
		p.record(o, st)
	}
	return nil
}

// recordAllocs keeps the store's allocations per request: those of a
// repeated execution plus what the first execution allocated beyond the
// repeated one at the KMS level (the cache-miss path).
func (p *peeler) recordAllocs(st []stmtPeel) {
	for i := range st {
		m := &st[i]
		if m.reads == 0 {
			continue
		}
		cold := max(float64(m.firstAllocs)-float64(m.againAllocs), 0)
		p.s.addValue("kdb.allocs_per_exec", (float64(m.kdbAllocs)/Backends+cold)/float64(m.reads))
	}
}

// wire times the client protocol's codec on one statement and its reply.
func (p *peeler) wire(s *stmt, rendered string) {
	req := &wire.Msg{Kind: wire.MsgExec, SID: 7, Seq: 1_000_000, Stmt: s.text}
	t0 := time.Now()
	enc := wire.EncodeMsg(req)
	p.s.add("wire.encode_req_ns", time.Since(t0))
	t0 = time.Now()
	_, _ = wire.DecodeMsg(enc)
	p.s.add("wire.decode_req_ns", time.Since(t0))
	reply := &wire.Msg{Kind: wire.MsgReply, SID: 7, Seq: 1_000_000, Language: s.lang, Rendered: rendered, WallUS: 100, SimUS: 9000}
	t0 = time.Now()
	enc = wire.EncodeMsg(reply)
	p.s.add("wire.encode_reply_ns", time.Since(t0))
	t0 = time.Now()
	_, _ = wire.DecodeMsg(enc)
	p.s.add("wire.decode_reply_ns", time.Since(t0))
	p.s.addValue("wire.reply_bytes", float64(len(enc)))
}

// record turns one operation's level timings into self times.
func (p *peeler) record(o *op, st []stmtPeel) {
	var lt layerTimes
	for i := range o.stmts {
		s, m := &o.stmts[i], &st[i]
		l := p.langs[s.lang]
		id := p.log.nextStmt()
		note := s.lang + " " + o.kind
		lt[layerServer] += int64(m.remote - m.session)
		p.s.add("server.roundtrip_overhead_us", m.remote-m.session)
		if isVerb(s.text) {
			// Transaction control is the transaction manager's work.
			lt[layerKC] += int64(m.session)
			if s.text == verbCommit && o.kind == "transfer" {
				p.s.add("txn.commit_us", m.session)
			}
			p.spans(id, note, m, 0, 0)
			continue
		}
		p.s.add("core."+l.core+".stmt_p50_us", m.session)
		front := m.parse
		if m.planHit {
			front = m.planGet
		}
		var kmsSelf time.Duration
		if l.kms != "" {
			kmsSelf = m.kmsAgain - m.kcAll
			p.s.add(l.kms+".self_us", kmsSelf)
		}
		sessionSelf := m.session - m.kmsAgain - m.kfs - front
		p.s.add("core.session_self_us", sessionSelf)
		// The store's time is its warm time plus what the first execution
		// paid for cold caches, per request.
		cold := max(m.kmsFirst-m.kmsAgain, 0)
		var kdbTime time.Duration
		if m.reads > 0 {
			kdbTime = m.kdb + cold
			name := "kdb.exec_point_us"
			if isScan(o.kind) {
				name = "kdb.exec_scan_us"
			}
			p.s.add(name, kdbTime/time.Duration(m.reads))
		}
		lt[layerCore] += int64(sessionSelf)
		lt[layerParse] += int64(front)
		lt[layerKMS] += int64(kmsSelf)
		lt[layerKC] += int64(m.kcAll - m.mbds) // reads: self; mutations: everything below too
		lt[layerMBDS] += int64(m.mbds - m.kdb)
		lt[layerKDB] += int64(kdbTime)
		lt[layerKFS] += int64(m.kfs)
		p.spans(id, note, m, kmsSelf, kdbTime)
		p.crossCheck(l, m, sessionSelf, kmsSelf)
	}
	p.s.budget[o.kind] = append(p.s.budget[o.kind], lt)
}

// spans writes one statement's levels into the span log as a tree. The
// levels ran one after the other, each span keeps the duration it measured,
// and children are laid out from their parent's start.
func (p *peeler) spans(stmt int, note string, m *stmtPeel, kmsSelf, kdbTime time.Duration) {
	at := time.Now()
	lay := func(name string, d time.Duration, parent int) int {
		return p.log.add(name, at, at.Add(d), parent, stmt, note)
	}
	root := lay("remote", m.remote, -1)
	sess := lay("session", m.session, root)
	if m.ast == nil {
		return
	}
	lay("parse", m.parse, sess)
	k := lay("kms", m.kmsAgain, sess)
	c := lay("kc", m.kcAll, k)
	if m.reads > 0 {
		mb := lay("mbds", m.mbds, c)
		lay("kdb", kdbTime, mb)
	}
	lay("kfs", m.kfs, sess)
}

// crossCheck compares the peeled self times of a read statement with the
// ones its own span tree (core.Config.Tracing) gives.
func (p *peeler) crossCheck(l *peelLang, m *stmtPeel, sessionSelf, kmsSelf time.Duration) {
	if m.trace == nil || m.reads == 0 || m.reads != len(m.reqs) {
		return
	}
	var kcSum, backendSum time.Duration
	for _, kc := range m.trace.FindAll("kc.exec") {
		var slowest time.Duration
		for _, be := range kc.Children() {
			slowest = max(slowest, be.Duration())
		}
		kcSum += kc.Duration()
		backendSum += slowest
	}
	parse := m.trace.Find("parse").Duration()
	format := m.trace.Find("kfs.format").Duration()
	translate := m.trace.Find("kms.translate").Duration()
	if l.kms == "" {
		translate = kcSum
	} else {
		p.s.addCross("kms", kmsSelf, translate-kcSum)
	}
	p.s.addCross("core", sessionSelf, m.trace.Duration()-parse-translate-format)
	p.s.addCross("kc+mbds", m.kcReads-m.kdb, kcSum-backendSum)
	p.s.addCross("kdb", m.kdb, backendSum)
	p.s.addCross("kfs", m.kfs, format)
}
