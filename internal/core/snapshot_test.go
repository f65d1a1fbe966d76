package core

import (
	"errors"
	"testing"

	"mlds/internal/txn"
)

// TestBeginWorkReadOnly: the BEGIN WORK READ ONLY statement opens a snapshot
// transaction — its reads are repeatable against concurrent committed writes,
// and its mutations fail with txn.ErrReadOnly without ending the transaction.
func TestBeginWorkReadOnly(t *testing.T) {
	s := newSystem(t)
	if _, err := s.CreateRelational("shop", "CREATE TABLE emp (ename CHAR(20), pay INTEGER);"); err != nil {
		t.Fatal(err)
	}
	reader, err := s.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()
	writer, err := s.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()

	if _, err := writer.Execute("INSERT INTO emp (ename, pay) VALUES ('Ann', 900)"); err != nil {
		t.Fatal(err)
	}

	out, err := reader.Execute("BEGIN WORK READ ONLY")
	if err != nil {
		t.Fatal(err)
	}
	if out.Rendered != "begin-ro" {
		t.Fatalf("rendered %q, want begin-ro", out.Rendered)
	}
	if !reader.InTxn() {
		t.Fatal("not in transaction after BEGIN WORK READ ONLY")
	}

	count := func() int {
		rs, err := reader.Execute("SELECT ename FROM emp")
		if err != nil {
			t.Fatal(err)
		}
		return len(rs.SQL.Rows)
	}
	if n := count(); n != 1 {
		t.Fatalf("snapshot sees %d rows, want 1", n)
	}

	// Commit a write after the snapshot pinned; the snapshot must not move.
	if _, err := writer.Execute("INSERT INTO emp (ename, pay) VALUES ('Bob', 700)"); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 {
		t.Fatalf("snapshot moved: sees %d rows, want 1", n)
	}

	// Mutations are rejected; the transaction survives the failed statement.
	if _, err := reader.Execute("INSERT INTO emp (ename, pay) VALUES ('Cay', 800)"); !errors.Is(err, txn.ErrReadOnly) {
		t.Fatalf("mutation in read-only txn: %v, want ErrReadOnly", err)
	}
	if !reader.InTxn() {
		t.Fatal("read-only transaction ended by a rejected mutation")
	}
	if n := count(); n != 1 {
		t.Fatalf("snapshot broken after rejected mutation: %d rows", n)
	}

	if _, err := reader.Execute("COMMIT"); err != nil {
		t.Fatal(err)
	}
	// Out of the snapshot: the session reads current state again.
	if n := count(); n != 2 {
		t.Fatalf("after COMMIT sees %d rows, want 2", n)
	}
}

// TestSnapshotSessionOption: a session opened with SnapshotSession runs every
// implicit statement in its own snapshot — reads never block on writers'
// locks and mutations fail with ErrReadOnly.
func TestSnapshotSessionOption(t *testing.T) {
	s := newSystem(t)
	if _, err := s.CreateRelational("shop", "CREATE TABLE emp (ename CHAR(20), pay INTEGER);"); err != nil {
		t.Fatal(err)
	}
	writer, err := s.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	defer writer.Close()
	if _, err := writer.Execute("INSERT INTO emp (ename, pay) VALUES ('Ann', 900)"); err != nil {
		t.Fatal(err)
	}

	reader, err := s.Open("shop", "sql", SnapshotSession())
	if err != nil {
		t.Fatal(err)
	}
	defer reader.Close()

	// The writer holds an exclusive lock in an open transaction; a snapshot
	// read passes straight through and sees only committed state.
	if _, err := writer.Execute("BEGIN WORK"); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Execute("UPDATE emp SET pay = 999 WHERE ename = 'Ann'"); err != nil {
		t.Fatal(err)
	}
	rs, err := reader.Execute("SELECT pay FROM emp WHERE ename = 'Ann'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.SQL.Rows) != 1 {
		t.Fatalf("snapshot session read %d rows, want 1", len(rs.SQL.Rows))
	}
	if got := rs.SQL.Rows[0][0].AsInt(); got != 900 {
		t.Fatalf("snapshot session sees uncommitted pay=%d", got)
	}
	if _, err := writer.Execute("COMMIT"); err != nil {
		t.Fatal(err)
	}

	// A fresh implicit statement pins a fresh snapshot: the commit is seen.
	rs, err = reader.Execute("SELECT pay FROM emp WHERE ename = 'Ann'")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.SQL.Rows[0][0].AsInt(); got != 999 {
		t.Fatalf("snapshot session stuck at pay=%d after commit", got)
	}

	// Mutations through the snapshot session are rejected.
	if _, err := reader.Execute("DELETE FROM emp WHERE ename = 'Ann'"); !errors.Is(err, txn.ErrReadOnly) {
		t.Fatalf("mutation through snapshot session: %v, want ErrReadOnly", err)
	}

	// Explicit transactions still work on the same session.
	if err := reader.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Execute("SELECT ename FROM emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := reader.Execute("COMMIT"); err != nil {
		t.Fatal(err)
	}
}

// TestReadOnlyVerbAcrossInterfaces: every language interface accepts the
// READ ONLY spellings of BEGIN.
func TestReadOnlyVerbAcrossInterfaces(t *testing.T) {
	s := newSystem(t)
	newLoadedUniv(t, s)
	sess, err := s.Open("university", "abdl")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	for _, stmt := range []string{
		"BEGIN READ ONLY",
		"BEGIN WORK READ ONLY;",
		"begin transaction read only",
		"START TRANSACTION READ ONLY",
	} {
		out, err := sess.Execute(stmt)
		if err != nil {
			t.Fatalf("%q: %v", stmt, err)
		}
		if out.Rendered != "begin-ro" {
			t.Fatalf("%q rendered %q", stmt, out.Rendered)
		}
		if _, err := sess.Execute("COMMIT"); err != nil {
			t.Fatal(err)
		}
	}
}
