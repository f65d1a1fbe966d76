package server_test

import (
	"context"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mlds/client"
	"mlds/internal/core"
	"mlds/internal/mbds"
	"mlds/internal/server"
	"mlds/internal/txn"
	"mlds/internal/univ"
	"mlds/internal/wire"
)

// testSystem builds a system with one database per model, lightly seeded, so
// every language interface can be driven over the wire.
func testSystem(t *testing.T) *core.System {
	t.Helper()
	sys := core.NewSystem(core.Config{Kernel: mbds.DefaultConfig(2)})
	t.Cleanup(sys.Close)
	if _, err := sys.CreateFunctional("university", univ.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	dap, err := sys.Open("university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dap.Execute("CREATE department (dname := 'History', building := 'Hall H');"); err != nil {
		t.Fatal(err)
	}
	_ = dap.Close()
	if _, err := sys.CreateRelational("shop",
		"CREATE TABLE emp (ename CHAR(20) NOT NULL, pay INTEGER);"); err != nil {
		t.Fatal(err)
	}
	sq, err := sys.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sq.Execute("INSERT INTO emp (ename, pay) VALUES ('Ann', 900)"); err != nil {
		t.Fatal(err)
	}
	_ = sq.Close()
	if _, err := sys.CreateHierarchical("school",
		"DBD NAME IS school\nSEGMENT NAME IS dept\n    FIELD dname CHAR 20\n"); err != nil {
		t.Fatal(err)
	}
	dl, err := sys.Open("school", "dli")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dl.Execute("ISRT dept (dname = 'CS')"); err != nil {
		t.Fatal(err)
	}
	_ = dl.Close()
	return sys
}

func startServer(t *testing.T, sys *core.System, cfg server.Config) *server.Server {
	t.Helper()
	srv, err := server.Listen("127.0.0.1:0", sys, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func dial(t *testing.T, srv *server.Server, opts ...client.Option) *client.Client {
	t.Helper()
	c, err := client.Dial(context.Background(), srv.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestFiveLanguagesOverWire(t *testing.T) {
	srv := startServer(t, testSystem(t), server.Config{})
	c := dial(t, srv)
	ctx := context.Background()

	dbs, err := c.Databases(ctx)
	if err != nil || len(dbs) != 3 {
		t.Fatalf("Databases() = %v, %v", dbs, err)
	}
	cases := []struct {
		db, lang, stmt, want string
	}{
		{"university", "daplex", "FOR EACH department PRINT dname;", "History"},
		{"university", "dml", "MOVE 'History' TO dname IN department", "MOVE"},
		{"shop", "sql", "SELECT COUNT(*) FROM emp", "1"},
		{"school", "dli", "GU dept (dname = 'CS')", "CS"},
		{"university", "abdl", "RETRIEVE ((FILE = department)) (dname)", "History"},
	}
	for _, tc := range cases {
		sess, err := c.Open(ctx, tc.db, tc.lang)
		if err != nil {
			t.Fatalf("Open(%s, %s): %v", tc.db, tc.lang, err)
		}
		out, err := sess.Execute(tc.stmt)
		if err != nil {
			t.Fatalf("%s %q: %v", tc.lang, tc.stmt, err)
		}
		if out.Code != wire.CodeOK || !strings.Contains(out.Rendered, tc.want) {
			t.Errorf("%s: code %s, rendered %q (want %q)", tc.lang, out.Code, out.Rendered, tc.want)
		}
		if err := sess.Close(); err != nil {
			t.Errorf("close %s: %v", tc.lang, err)
		}
	}
	if got := srv.Sessions(); got != 0 {
		t.Errorf("sessions after closes = %d", got)
	}
}

// TestMultiplexedSessionsRace interleaves many concurrent sessions on a few
// connections, some in explicit transactions, under the race detector.
func TestMultiplexedSessionsRace(t *testing.T) {
	srv := startServer(t, testSystem(t), server.Config{})
	const conns, perConn = 4, 16
	var wg sync.WaitGroup
	errCh := make(chan error, conns*perConn)
	for i := 0; i < conns; i++ {
		c := dial(t, srv)
		for j := 0; j < perConn; j++ {
			wg.Add(1)
			go func(c *client.Client, j int) {
				defer wg.Done()
				ctx := context.Background()
				sess, err := c.Open(ctx, "university", "daplex")
				if err != nil {
					errCh <- err
					return
				}
				defer sess.Close()
				if j%3 == 0 {
					if err := sess.BeginSnapshot(); err != nil {
						errCh <- err
						return
					}
				}
				for k := 0; k < 5; k++ {
					if _, err := sess.ExecuteCtx(ctx, "FOR EACH department PRINT dname;"); err != nil {
						errCh <- err
						return
					}
				}
				if j%3 == 0 {
					if err := sess.Commit(); err != nil {
						errCh <- err
					}
				}
			}(c, j)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("session failed: %v", err)
	}
}

// TestThousandSessionsFiveLanguages holds a thousand live sessions at once,
// multiplexed over eight connections and spread over all five languages:
// every session opens before any statement runs, so the peak is truly
// concurrent; then each runs a short read-only script (every tenth inside a
// snapshot transaction) and closes. Nothing may fail, and no session may
// outlive its close.
func TestThousandSessionsFiveLanguages(t *testing.T) {
	const sessions, conns = 1000, 8
	srv := startServer(t, testSystem(t), server.Config{})
	ctx := context.Background()
	clients := make([]*client.Client, conns)
	for i := range clients {
		clients[i] = dial(t, srv)
	}
	scripts := []struct {
		db, lang string
		stmts    []string
	}{
		{"university", "daplex", []string{"FOR EACH department PRINT dname;"}},
		{"university", "dml", []string{
			"MOVE 'History' TO dname IN department",
			"FIND ANY department USING dname IN department",
			"GET dname IN department",
		}},
		{"shop", "sql", []string{"SELECT COUNT(*) FROM emp"}},
		{"school", "dli", []string{"GU dept (dname = 'CS')"}},
		{"university", "abdl", []string{"RETRIEVE ((FILE = department)) (dname)"}},
	}

	open := make([]*client.Session, sessions)
	var wg sync.WaitGroup
	for i := range open {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc := scripts[i%len(scripts)]
			sess, err := clients[i%conns].Open(ctx, sc.db, sc.lang)
			if err != nil {
				t.Errorf("open %s/%s: %v", sc.db, sc.lang, err)
				return
			}
			open[i] = sess
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if peak := srv.Sessions(); peak < sessions {
		t.Fatalf("%d live sessions after opening %d", peak, sessions)
	}

	for i, sess := range open {
		wg.Add(1)
		go func(i int, sess *client.Session) {
			defer wg.Done()
			snapshot := i%10 == 0
			if snapshot {
				if err := sess.BeginSnapshot(); err != nil {
					t.Errorf("begin: %v", err)
					return
				}
			}
			for _, stmt := range scripts[i%len(scripts)].stmts {
				if _, err := sess.ExecuteCtx(ctx, stmt); err != nil {
					t.Errorf("%s: %v", stmt, err)
					return
				}
			}
			if snapshot {
				if err := sess.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
			}
			if err := sess.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}(i, sess)
	}
	wg.Wait()
	if got := srv.Sessions(); got != 0 {
		t.Errorf("%d sessions still live after every close", got)
	}
}

func TestSessionLimits(t *testing.T) {
	srv := startServer(t, testSystem(t), server.Config{MaxSessions: 2})
	c := dial(t, srv)
	ctx := context.Background()
	s1, err := c.Open(ctx, "university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(ctx, "shop", "sql"); err != nil {
		t.Fatal(err)
	}
	_, err = c.Open(ctx, "school", "dli")
	var ce *client.Error
	if !errors.As(err, &ce) || ce.Code != wire.CodeSessionLimit {
		t.Fatalf("third open: %v, want session-limit", err)
	}
	if !ce.Retryable() || !ce.NotExecuted() {
		t.Error("session-limit refusal must be retryable and not-executed")
	}
	// Closing a session frees the slot.
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(ctx, "school", "dli"); err != nil {
		t.Fatalf("open after close: %v", err)
	}
}

func TestPerDBSessionLimit(t *testing.T) {
	srv := startServer(t, testSystem(t), server.Config{MaxSessionsPerDB: 1})
	c := dial(t, srv)
	ctx := context.Background()
	if _, err := c.Open(ctx, "university", "daplex"); err != nil {
		t.Fatal(err)
	}
	var ce *client.Error
	if _, err := c.Open(ctx, "university", "abdl"); !errors.As(err, &ce) || ce.Code != wire.CodeSessionLimit {
		t.Fatalf("second university session: %v, want session-limit", err)
	}
	if _, err := c.Open(ctx, "shop", "sql"); err != nil {
		t.Fatalf("other database must still admit: %v", err)
	}
}

func TestRateLimit(t *testing.T) {
	srv := startServer(t, testSystem(t), server.Config{RateLimit: 0.001, RateBurst: 2})
	c := dial(t, srv)
	ctx := context.Background()
	sess, err := c.Open(ctx, "university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	var limited bool
	for i := 0; i < 4; i++ {
		_, err := sess.ExecuteCtx(ctx, "FOR EACH department PRINT dname;")
		var ce *client.Error
		if errors.As(err, &ce) && ce.Code == wire.CodeRateLimited {
			limited = true
			if !ce.Retryable() || !ce.NotExecuted() {
				t.Error("rate-limit refusal must be retryable and not-executed")
			}
		} else if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
	}
	if !limited {
		t.Error("burst of 2 tokens admitted 4 statements")
	}
}

// TestBackpressure fills a depth-1 session queue behind a lock wait and
// checks overflow statements are refused with the typed code, not queued
// without bound.
func TestBackpressure(t *testing.T) {
	sys := testSystem(t)
	srv := startServer(t, sys, server.Config{SessionQueue: 1})
	c := dial(t, srv)
	ctx := context.Background()

	// A local session takes the emp file lock inside an explicit txn, so the
	// remote session's worker blocks on its first write.
	holder, err := sys.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := holder.Execute("UPDATE emp SET pay = 1 WHERE ename = 'Ann'"); err != nil {
		t.Fatal(err)
	}

	sess, err := c.Open(ctx, "shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	// Five concurrent writes: one executes (blocked on the lock), one sits
	// in the queue, and the rest must be refused immediately.
	const writes = 5
	done := make(chan error, writes)
	for i := 0; i < writes; i++ {
		go func() {
			_, err := sess.ExecuteCtx(ctx, "UPDATE emp SET pay = 2 WHERE ename = 'Ann'")
			done <- err
		}()
	}
	// Give the server time to admit or refuse all five, then release the
	// lock so the admitted writes finish quickly.
	time.Sleep(300 * time.Millisecond)
	if err := holder.Rollback(); err != nil {
		t.Fatal(err)
	}
	var refused int
	for i := 0; i < writes; i++ {
		err := <-done
		var ce *client.Error
		switch {
		case err == nil:
		case errors.As(err, &ce) && ce.Code == wire.CodeBackpressure:
			refused++
			if !ce.Retryable() || !ce.NotExecuted() {
				t.Error("backpressure refusal must be retryable and not-executed")
			}
		default:
			t.Errorf("write error: %v", err)
		}
	}
	if refused == 0 {
		t.Error("depth-1 queue admitted five concurrent writes with the lock held")
	}
}

// TestDrainGraceful: a draining server refuses new opens and implicit
// statements with the typed code, but lets an open explicit transaction run
// to commit.
func TestDrainGraceful(t *testing.T) {
	srv := startServer(t, testSystem(t), server.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	inTxn, err := c.Open(ctx, "shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	implicit, err := c.Open(ctx, "university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	if err := inTxn.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := inTxn.ExecuteCtx(ctx, "UPDATE emp SET pay = 7 WHERE ename = 'Ann'"); err != nil {
		t.Fatal(err)
	}

	srv.Drain()
	if srv.Healthy() {
		t.Error("draining server must report unhealthy")
	}
	var ce *client.Error
	if _, err := c.Open(ctx, "university", "abdl"); !errors.As(err, &ce) || ce.Code != wire.CodeDraining {
		t.Fatalf("open while draining: %v", err)
	}
	if _, err := implicit.ExecuteCtx(ctx, "FOR EACH department PRINT dname;"); !errors.As(err, &ce) || ce.Code != wire.CodeDraining {
		t.Fatalf("implicit statement while draining: %v", err)
	}
	if !ce.Retryable() || !ce.NotExecuted() {
		t.Error("draining refusal must be retryable and not-executed")
	}
	if !c.Draining() {
		t.Error("client must observe the draining flag")
	}
	// The open transaction finishes its work and commits.
	if _, err := inTxn.ExecuteCtx(ctx, "SELECT pay FROM emp WHERE ename = 'Ann'"); err != nil {
		t.Fatalf("in-txn statement while draining: %v", err)
	}
	if err := inTxn.Commit(); err != nil {
		t.Fatalf("commit while draining: %v", err)
	}
}

// TestConnKillMidTransaction kills the client connection while its session
// holds write locks in an explicit transaction, and checks the server rolls
// the transaction back so the locks are released.
func TestConnKillMidTransaction(t *testing.T) {
	sys := testSystem(t)
	srv := startServer(t, sys, server.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	sess, err := c.Open(ctx, "shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecuteCtx(ctx, "UPDATE emp SET pay = 13 WHERE ename = 'Ann'"); err != nil {
		t.Fatal(err)
	}
	_ = c.Close() // abrupt: no MsgClose, no COMMIT

	deadline := time.After(5 * time.Second)
	for srv.Sessions() != 0 {
		select {
		case <-deadline:
			t.Fatal("server did not reap sessions after connection death")
		case <-time.After(time.Millisecond):
		}
	}
	// The emp file lock must be free again: a local update succeeds, and the
	// uncommitted pay=13 was rolled back.
	local, err := sys.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	out, err := local.Execute("SELECT pay FROM emp WHERE ename = 'Ann'")
	if err != nil {
		t.Fatalf("statement after conn kill: %v", err)
	}
	if !strings.Contains(out.Rendered, "900") {
		t.Errorf("uncommitted update survived the kill: %q", out.Rendered)
	}
}

// TestDeadlockOverWire stages a real S→X upgrade deadlock between two
// remote sessions and checks the victim's error reconstructs as the same
// *txn.AbortedError wrapping txn.ErrDeadlock a local caller would see.
func TestDeadlockOverWire(t *testing.T) {
	sys := testSystem(t)
	if _, err := sys.CreateRelational("bank", "CREATE TABLE dl (v INTEGER);"); err != nil {
		t.Fatal(err)
	}
	db, _ := sys.Database("bank")
	if _, err := db.ExecABDL("INSERT (<FILE, dl>, <v, 0>)"); err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, sys, server.Config{})
	ctx := context.Background()
	a := mustOpen(t, dial(t, srv), "bank", "abdl")
	b := mustOpen(t, dial(t, srv), "bank", "abdl")

	// Both read under S inside explicit transactions, then both try the X
	// upgrade: each waits on the other's read lock until the manager picks
	// a victim.
	for _, sess := range []*client.Session{a, b} {
		if err := sess.Begin(); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.ExecuteCtx(ctx, "RETRIEVE ((FILE = dl)) (v)"); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 2)
	for _, sess := range []*client.Session{a, b} {
		go func(sess *client.Session) {
			_, err := sess.ExecuteCtx(ctx, "UPDATE ((FILE = dl)) (v = 1)")
			if err == nil {
				err = sess.Commit()
			}
			errs <- err
		}(sess)
	}
	e1, e2 := <-errs, <-errs
	verr := e1
	if verr == nil {
		verr = e2
	}
	if (e1 == nil) == (e2 == nil) {
		t.Fatalf("want exactly one deadlock victim, got errors %v / %v", e1, e2)
	}
	if !errors.Is(verr, txn.ErrDeadlock) {
		t.Fatalf("victim error = %v, want ErrDeadlock", verr)
	}
	var ae *txn.AbortedError
	if !errors.As(verr, &ae) || ae.ID == 0 {
		t.Fatalf("victim error %v does not carry the aborted transaction id", verr)
	}
	// Neither remote session is left in a transaction.
	if a.InTxn() && b.InTxn() {
		t.Error("both sessions still report an open transaction")
	}
}

func mustOpen(t *testing.T, c *client.Client, db, lang string) *client.Session {
	t.Helper()
	sess, err := c.Open(context.Background(), db, lang)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestMetricsAndHealthEndpoints(t *testing.T) {
	srv := startServer(t, testSystem(t), server.Config{})
	c := dial(t, srv)
	sess, err := c.Open(context.Background(), "university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("FOR EACH department PRINT dname;"); err != nil {
		t.Fatal(err)
	}

	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	code, body := get("/metrics")
	if code != 200 || !strings.Contains(body, "mlds_server_sessions") ||
		!strings.Contains(body, "mlds_server_requests_total") {
		t.Errorf("/metrics = %d:\n%.400s", code, body)
	}
	if code, _ := get("/healthz"); code != 200 {
		t.Errorf("/healthz = %d, want 200", code)
	}
	srv.Drain()
	if code, _ := get("/healthz"); code == 200 {
		t.Errorf("/healthz after drain = %d, want non-200", code)
	}
}

func TestProtocolErrors(t *testing.T) {
	srv := startServer(t, testSystem(t), server.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	var ce *client.Error
	// Exec on a session that was never opened.
	if _, err := c.Open(ctx, "nope", "sql"); !errors.Is(err, core.ErrNoDatabase) {
		t.Errorf("missing database: %v", err)
	}
	if _, err := c.Open(ctx, "university", "sql"); !errors.Is(err, core.ErrWrongModel) {
		t.Errorf("wrong model: %v", err)
	}
	if _, err := c.Open(ctx, "university", "cobol"); !errors.Is(err, core.ErrUnknownLanguage) {
		t.Errorf("unknown language: %v", err)
	}
	sess, err := c.Open(ctx, "university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecuteCtx(ctx, "NOT DAPLEX AT ALL"); !errors.As(err, &ce) || ce.Code != wire.CodeParse {
		t.Errorf("parse failure: %v", err)
	}
	if err := sess.Commit(); !errors.Is(err, core.ErrNoTxn) {
		t.Errorf("commit without txn: %v", err)
	}
	// Read-only violation reconstructs the txn sentinel.
	if err := sess.BeginSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecuteCtx(ctx, `CREATE department (dname := "X");`); !errors.Is(err, txn.ErrReadOnly) {
		t.Errorf("read-only violation: %v", err)
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
}
