package client_test

import (
	"context"
	"errors"
	"fmt"
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

// startServer builds a lightly seeded system and serves it on loopback.
func startServer(t *testing.T, cfg server.Config) *server.Server {
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

func TestDialPingDatabases(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	dbs, err := c.Databases(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, db := range dbs {
		names = append(names, db.Name+"/"+db.Model)
	}
	got := strings.Join(names, " ")
	if !strings.Contains(got, "university/functional") || !strings.Contains(got, "shop/relational") {
		t.Errorf("Databases() = %s", got)
	}
}

func TestDialFailures(t *testing.T) {
	if _, err := client.Dial(context.Background(), "127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := client.Dial(ctx, "127.0.0.1:1"); err == nil {
		t.Error("dial with canceled context succeeded")
	}
}

// TestSessionIsCoreSession drives the full core.Session surface remotely.
func TestSessionIsCoreSession(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	sess, err := c.Open(ctx, "university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	var _ core.Session = sess
	if sess.Language() != "daplex" {
		t.Errorf("Language() = %q", sess.Language())
	}

	out, err := sess.Execute("FOR EACH department PRINT dname;")
	if err != nil {
		t.Fatal(err)
	}
	if out.Code != wire.CodeOK || !strings.Contains(out.Rendered, "History") ||
		out.Language != "daplex" || out.Wall <= 0 {
		t.Errorf("outcome = %+v", out)
	}

	// Explicit transaction, mirrored InTxn, commit.
	if sess.InTxn() {
		t.Error("fresh session reports open txn")
	}
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if !sess.InTxn() {
		t.Error("InTxn false after Begin")
	}
	if _, err := sess.ExecuteCtx(ctx, "CREATE department (dname := 'Math', building := 'M');"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Commit(); err != nil {
		t.Fatal(err)
	}
	if sess.InTxn() {
		t.Error("InTxn true after Commit")
	}

	// Rollback undoes.
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecuteCtx(ctx, "CREATE department (dname := 'Gone', building := 'G');"); err != nil {
		t.Fatal(err)
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	out, err = sess.Execute("FOR EACH department PRINT dname;")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.Rendered, "Gone") || !strings.Contains(out.Rendered, "Math") {
		t.Errorf("rollback/commit mix-up: %q", out.Rendered)
	}

	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("FOR EACH department PRINT dname;"); err == nil {
		t.Error("execute on closed session succeeded")
	}
	if err := sess.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestSnapshotSession(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	sess, err := c.Open(ctx, "university", "daplex", client.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.ExecuteCtx(ctx, "FOR EACH department PRINT dname;"); err != nil {
		t.Fatalf("snapshot read: %v", err)
	}
	if _, err := sess.ExecuteCtx(ctx, "CREATE department (dname := 'X', building := 'X');"); !errors.Is(err, txn.ErrReadOnly) {
		t.Errorf("snapshot mutation: %v, want ErrReadOnly", err)
	}
}

func TestErrorReconstruction(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	if _, err := c.Open(ctx, "missing", "sql"); !errors.Is(err, core.ErrNoDatabase) {
		t.Errorf("no database: %v", err)
	}
	if _, err := c.Open(ctx, "shop", "daplex"); !errors.Is(err, core.ErrWrongModel) {
		t.Errorf("wrong model: %v", err)
	}
	if _, err := c.Open(ctx, "shop", "fortran"); !errors.Is(err, core.ErrUnknownLanguage) {
		t.Errorf("unknown language: %v", err)
	}
	sess, err := c.Open(ctx, "shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	var ce *client.Error
	if _, err := sess.ExecuteCtx(ctx, "SELEKT WRONG"); !errors.As(err, &ce) || ce.Code != wire.CodeParse {
		t.Errorf("parse error: %v", err)
	}
	if ce.Retryable() || ce.NotExecuted() {
		t.Error("parse errors are neither retryable nor admission refusals")
	}
	if err := sess.Commit(); !errors.Is(err, core.ErrNoTxn) {
		t.Errorf("commit without txn: %v", err)
	}
	if err := sess.Rollback(); !errors.Is(err, core.ErrNoTxn) {
		t.Errorf("rollback without txn: %v", err)
	}
	// The failed statement still carries its outcome code.
	out, _ := sess.ExecuteCtx(ctx, "SELEKT WRONG")
	if out == nil || out.Code != wire.CodeParse {
		t.Errorf("failed outcome = %+v", out)
	}
}

func TestContextCancellation(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)
	sess, err := c.Open(context.Background(), "university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sess.ExecuteCtx(ctx, "FOR EACH department PRINT dname;"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled exec: %v", err)
	}
	// A statement cancelled before it is sent never runs on the server.
	if _, err := sess.ExecuteCtx(ctx, "CREATE department (dname := 'Never');"); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled create: %v", err)
	}
	if out, err := sess.ExecuteCtx(context.Background(), "FOR EACH department WHERE dname = 'Never' PRINT dname;"); err != nil || strings.Contains(out.Rendered, "Never") {
		t.Errorf("canceled create ran: %v, err %v", out, err)
	}
	// The connection survives an abandoned request.
	if _, err := sess.ExecuteCtx(context.Background(), "FOR EACH department PRINT dname;"); err != nil {
		t.Errorf("exec after canceled request: %v", err)
	}
}

func TestServerGoneFailsPending(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv, client.WithTimeout(2*time.Second))
	sess, err := c.Open(context.Background(), "university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	if _, err := sess.Execute("FOR EACH department PRINT dname;"); err == nil {
		t.Error("execute against closed server succeeded")
	}
	if err := c.Ping(context.Background()); err == nil {
		t.Error("ping against closed server succeeded")
	}
}

// TestConcurrentSessionsOneConn exercises the multiplexing paths under the
// race detector from the client side.
// TestOversizedReplyFailsOnlyItsSession: a reply over the server's frame
// limit comes back as ErrResultTooLarge on its own session, and the other
// sessions multiplexed on the connection — and the failing one — carry on.
func TestOversizedReplyFailsOnlyItsSession(t *testing.T) {
	srv := startServer(t, server.Config{MaxFrame: 1024})
	c := dial(t, srv)
	ctx := context.Background()
	big, err := c.Open(ctx, "shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	small, err := c.Open(ctx, "shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		stmt := fmt.Sprintf("INSERT INTO emp (ename, pay) VALUES ('employee-%010d', %d)", i, i)
		if _, err := big.ExecuteCtx(ctx, stmt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := big.ExecuteCtx(ctx, "SELECT ename, pay FROM emp"); !errors.Is(err, client.ErrResultTooLarge) {
		t.Fatalf("oversized SELECT: err = %v, want ErrResultTooLarge", err)
	}
	for _, sess := range []*client.Session{small, big} {
		out, err := sess.ExecuteCtx(ctx, "SELECT pay FROM emp WHERE ename = 'employee-0000000007'")
		if err != nil {
			t.Fatalf("statement after the oversized reply: %v", err)
		}
		if !strings.Contains(out.Rendered, "7") {
			t.Fatalf("statement after the oversized reply rendered %q", out.Rendered)
		}
	}
}

func TestConcurrentSessionsOneConn(t *testing.T) {
	srv := startServer(t, server.Config{})
	c := dial(t, srv)
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			sess, err := c.Open(ctx, "university", "daplex")
			if err != nil {
				errCh <- err
				return
			}
			defer sess.Close()
			for k := 0; k < 3; k++ {
				if _, err := sess.ExecuteCtx(ctx, "FOR EACH department PRINT dname;"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("session failed: %v", err)
	}
}
