package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"mlds/internal/txn"
)

// newBank creates a relational database with a one-row account file the
// transaction tests contend on, plus a spare file for deadlock staging.
func newBank(t *testing.T, s *System) *Database {
	t.Helper()
	db, err := s.CreateRelational("bank", `
CREATE TABLE acct (bal INTEGER);
CREATE TABLE dl (v INTEGER);
`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecABDL("INSERT (<FILE, acct>, <bal, 0>)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecABDL("INSERT (<FILE, dl>, <v, 0>)"); err != nil {
		t.Fatal(err)
	}
	return db
}

// increment runs one read-modify-write round as an explicit multi-statement
// transaction: BEGIN, read the balance, write back balance+1, COMMIT. Under
// strict 2PL the read's S lock is held to commit, so two concurrent rounds
// can never both base their write on the same starting balance.
func increment(sess Session) error {
	if _, err := sess.Execute("BEGIN WORK"); err != nil {
		return err
	}
	out, err := sess.Execute("RETRIEVE ((FILE = acct)) (bal)")
	if err != nil {
		return err
	}
	if len(out.Kernel.Records) != 1 {
		return fmt.Errorf("read %d acct records, want 1", len(out.Kernel.Records))
	}
	bal, _ := out.Kernel.Records[0].Rec.Get("bal")
	if _, err := sess.Execute(fmt.Sprintf("UPDATE ((FILE = acct)) (bal = %d)", bal.AsInt()+1)); err != nil {
		return err
	}
	_, err = sess.Execute("COMMIT WORK")
	return err
}

// forceDeadlock stages a guaranteed S→X upgrade deadlock on the dl file:
// both sessions read under S, then both try to write, each waiting on the
// other's read lock. It returns the victim's error; the survivor commits.
func forceDeadlock(t *testing.T, a, b Session) error {
	t.Helper()
	for _, sess := range []Session{a, b} {
		if _, err := sess.Execute("BEGIN WORK"); err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Execute("RETRIEVE ((FILE = dl)) (v)"); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 2)
	for _, sess := range []Session{a, b} {
		sess := sess
		go func() {
			_, err := sess.Execute("UPDATE ((FILE = dl)) (v = 1)")
			if err == nil {
				_, err = sess.Execute("COMMIT WORK")
			}
			errs <- err
		}()
	}
	e1, e2 := <-errs, <-errs
	if (e1 == nil) == (e2 == nil) {
		t.Fatalf("want exactly one deadlock victim, got errors %v / %v", e1, e2)
	}
	if e1 != nil {
		return e1
	}
	return e2
}

// TestConcurrentTxnSerializable is the transaction subsystem's acceptance
// test: 8 sessions run conflicting read-modify-write transactions on one
// shared balance, retrying when aborted as a deadlock victim. Strict 2PL
// makes the outcome serializable — the final balance equals the number of
// committed increments, i.e. no update is ever lost — and the wait-for
// graph detects at least one deadlock along the way. Run with -race.
func TestConcurrentTxnSerializable(t *testing.T) {
	const sessions, rounds = 8, 25
	s := newSystem(t)
	db := newBank(t, s)

	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		sess, err := s.Open("bank", "abdl")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sess.Close()
			for r := 0; r < rounds; r++ {
				for {
					err := increment(sess)
					if err == nil {
						break
					}
					var ae *txn.AbortedError
					if !errors.As(err, &ae) {
						t.Errorf("non-abort error: %v", err)
						return
					}
					// Deadlock victim or lock timeout: the manager rolled the
					// transaction back and the session handle is clear — the
					// round retries from BEGIN, as any 2PL client must.
					if sess.InTxn() {
						t.Error("session still in txn after manager abort")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	out, err := db.ExecABDL("RETRIEVE ((FILE = acct)) (bal)")
	if err != nil {
		t.Fatal(err)
	}
	bal, _ := out.Records[0].Rec.Get("bal")
	if got := bal.AsInt(); got != sessions*rounds {
		t.Errorf("final balance = %d, want %d: %d updates lost",
			got, sessions*rounds, sessions*rounds-int(got))
	}

	// The S→X upgrade pattern all but guarantees deadlocks above, but the
	// scheduler could serialize every round; stage a deterministic one if so.
	if db.Ctrl.Txns().Stats().Deadlocks == 0 {
		a, _ := s.Open("bank", "abdl")
		b, _ := s.Open("bank", "abdl")
		defer a.Close()
		defer b.Close()
		verr := forceDeadlock(t, a, b)
		if !errors.Is(verr, txn.ErrDeadlock) {
			t.Errorf("victim error = %v, want ErrDeadlock", verr)
		}
	}
	if n := db.Ctrl.Txns().Stats().Deadlocks; n == 0 {
		t.Error("no deadlock was ever detected")
	} else {
		t.Logf("deadlocks detected and recovered: %d", n)
	}
}

// TestDeadlockVictimRecovers: the victim of a staged deadlock gets an error
// unwrapping to ErrDeadlock, its session drops out of the transaction, and
// the survivor's committed write is the one that sticks.
func TestDeadlockVictimRecovers(t *testing.T) {
	s := newSystem(t)
	db := newBank(t, s)
	a, _ := s.Open("bank", "abdl")
	b, _ := s.Open("bank", "abdl")
	defer a.Close()
	defer b.Close()

	verr := forceDeadlock(t, a, b)
	if !errors.Is(verr, txn.ErrDeadlock) {
		t.Fatalf("victim error = %v, want ErrDeadlock", verr)
	}
	var ae *txn.AbortedError
	if !errors.As(verr, &ae) {
		t.Fatalf("victim error %T does not carry the aborted transaction", verr)
	}
	if a.InTxn() || b.InTxn() {
		t.Error("a session is still in a transaction after the deadlock resolved")
	}
	out, err := db.ExecABDL("RETRIEVE ((FILE = dl)) (v)")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := out.Records[0].Rec.Get("v"); v.AsInt() != 1 {
		t.Errorf("survivor's write lost: v = %v", v)
	}
	if db.Ctrl.Txns().Stats().Deadlocks == 0 {
		t.Error("deadlock not counted")
	}
}

// TestTxnVerbsAcrossInterfaces: every language interface accepts the shared
// transaction-control spellings before its own parser ever runs.
func TestTxnVerbsAcrossInterfaces(t *testing.T) {
	s := newSystem(t)
	newLoadedUniv(t, s)
	if _, err := s.CreateRelational("shop", "CREATE TABLE emp (ename CHAR(20), pay INTEGER);"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateHierarchical("school", "DBD NAME IS school\nSEGMENT NAME IS dept\n    FIELD dname CHAR 20\n"); err != nil {
		t.Fatal(err)
	}

	open := []struct {
		lang, db string
	}{
		{"dml", "university"},
		{"daplex", "university"},
		{"sql", "shop"},
		{"dli", "school"},
		{"abdl", "university"},
	}
	for _, o := range open {
		sess, err := s.Open(o.db, o.lang)
		if err != nil {
			t.Fatalf("%s: %v", o.lang, err)
		}
		if sess.InTxn() {
			t.Errorf("%s: fresh session already in txn", o.lang)
		}
		for _, step := range []struct{ stmt, want string }{
			{"BEGIN WORK", "begin"},
			{"COMMIT", "commit"},
			{"start transaction;", "begin"},
			{"Rollback Work", "rollback"},
			{"BEGIN", "begin"},
			{"ABORT", "rollback"},
		} {
			out, err := sess.Execute(step.stmt)
			if err != nil {
				t.Fatalf("%s: %q: %v", o.lang, step.stmt, err)
			}
			if out.Rendered != step.want {
				t.Errorf("%s: %q rendered %q, want %q", o.lang, step.stmt, out.Rendered, step.want)
			}
			if want := step.want == "begin"; sess.InTxn() != want {
				t.Errorf("%s: after %q InTxn = %v", o.lang, step.stmt, sess.InTxn())
			}
		}
		// Verb misuse is reported, not executed by the language parser.
		if _, err := sess.Execute("COMMIT"); err == nil {
			t.Errorf("%s: COMMIT with no open transaction accepted", o.lang)
		}
		if err := sess.Begin(); err != nil {
			t.Fatal(err)
		}
		if err := sess.Begin(); err == nil || !strings.Contains(err.Error(), "already open") {
			t.Errorf("%s: nested BEGIN accepted (%v)", o.lang, err)
		}
		// Close aborts the abandoned transaction so its locks die with it.
		if err := sess.Close(); err != nil {
			t.Fatalf("%s: close with open txn: %v", o.lang, err)
		}
	}
}

// TestExplicitRollbackAcrossStatements: a SQL session's multi-statement
// transaction is atomic — its inserts are visible inside the transaction
// and fully undone by ROLLBACK, while a committed one persists.
func TestExplicitRollbackAcrossStatements(t *testing.T) {
	s := newSystem(t)
	if _, err := s.CreateRelational("shop", "CREATE TABLE emp (ename CHAR(20), pay INTEGER);"); err != nil {
		t.Fatal(err)
	}
	sess, err := s.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	count := func() int {
		rs, err := sess.Execute("SELECT ename FROM emp")
		if err != nil {
			t.Fatal(err)
		}
		return len(rs.SQL.Rows)
	}

	if _, err := sess.Execute("BEGIN WORK"); err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		"INSERT INTO emp (ename, pay) VALUES ('Ann', 900)",
		"INSERT INTO emp (ename, pay) VALUES ('Bob', 700)",
	} {
		if _, err := sess.Execute(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if n := count(); n != 2 {
		t.Fatalf("inside txn: %d rows, want 2 (reads see own writes)", n)
	}
	if _, err := sess.Execute("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 0 {
		t.Fatalf("after rollback: %d rows, want 0", n)
	}

	if _, err := sess.Execute("BEGIN WORK"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("INSERT INTO emp (ename, pay) VALUES ('Cay', 800)"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("COMMIT WORK"); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Fatalf("after commit: %d rows, want 1", n)
	}
}
