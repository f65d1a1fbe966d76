package mlds

import (
	"errors"
	"strings"
	"testing"
)

func TestPublicAPIEndToEnd(t *testing.T) {
	sys := New(KernelWith(2))
	defer sys.Close()

	db, err := sys.CreateFunctional("university", UniversityDDL)
	if err != nil {
		t.Fatal(err)
	}
	n, err := PopulateUniversity(db, SmallUniversity())
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("nothing loaded")
	}

	// CODASYL-DML over the functional database.
	dml, err := sys.Open("university", "dml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dml.Execute("MOVE 'Advanced Database' TO title IN course"); err != nil {
		t.Fatal(err)
	}
	out, err := dml.Execute("FIND ANY course USING title IN course")
	if err != nil {
		t.Fatal(err)
	}
	if !out.DML.Found {
		t.Fatal("course not found")
	}
	got, err := dml.Execute("GET course")
	if err != nil {
		t.Fatal(err)
	}
	text := FormatOutcome(got.DML, db.Net)
	if !strings.Contains(text, "'Advanced Database'") {
		t.Errorf("formatted outcome: %s", text)
	}

	// Daplex over the same database.
	dap, err := sys.Open("university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := dap.Execute("FOR EACH course WHERE credits >= 4 PRINT title, credits;")
	if err != nil {
		t.Fatal(err)
	}
	table := FormatRows(rows.Rows, []string{"title", "credits"})
	if !strings.Contains(table, "credits") {
		t.Errorf("formatted rows: %s", table)
	}

	// Raw ABDL over the same database.
	res, err := db.ExecABDL("RETRIEVE ((FILE = course)) (COUNT(title))")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 || res.Groups[0].Aggs[0].Val.AsInt() != int64(SmallUniversity().Courses) {
		t.Errorf("ABDL count: %s", FormatResult(res))
	}

	if SimTime(db) <= 0 {
		t.Error("simulated kernel time should accumulate")
	}
}

func TestValueConstructors(t *testing.T) {
	if Int(3).AsInt() != 3 || Float(2.5).AsFloat() != 2.5 || String("x").AsString() != "x" || !Null().IsNull() {
		t.Error("value constructors broken")
	}
}

// TestPublicTransactionSurface: the re-exported transaction API — session
// verbs, the unified Session methods, and the error sentinels — works
// through the package facade.
func TestPublicTransactionSurface(t *testing.T) {
	sys := New(KernelWith(2))
	defer sys.Close()
	if _, err := sys.CreateFunctional("u", UniversityDDL); err != nil {
		t.Fatal(err)
	}
	sess, err := sys.Open("u", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	var s Session = sess
	if out, err := s.Execute("BEGIN WORK"); err != nil || out.Rendered != "begin" {
		t.Fatalf("BEGIN WORK: %v, rendered %q", err, out.Rendered)
	}
	if !s.InTxn() {
		t.Fatal("InTxn false after BEGIN WORK")
	}
	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	var ae *TxnAbortedError
	if errors.As(errors.New("x"), &ae) {
		t.Fatal("errors.As matched a plain error")
	}
	if ErrDeadlock == nil || ErrLockTimeout == nil {
		t.Fatal("transaction sentinels missing")
	}
}
