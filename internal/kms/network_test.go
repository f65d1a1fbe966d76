package kms

// Tests for the AB(network) target: a natively-defined network schema where
// every set's membership attribute lives in the member file (the original
// MLDS network interface of Emdi), served by the same translator.

import (
	"context"
	"errors"
	"testing"

	"mlds/internal/codasyl"
	"mlds/internal/kc"
	"mlds/internal/mbds"
	"mlds/internal/netddl"
	"mlds/internal/xform"
)

const shopDDL = `
SCHEMA NAME IS shop

RECORD NAME IS dept
    02 dname TYPE IS CHARACTER 20
    02 floor TYPE IS FIXED
    DUPLICATES ARE NOT ALLOWED FOR dname

RECORD NAME IS emp
    02 ename TYPE IS CHARACTER 20
    02 pay TYPE IS FIXED

RECORD NAME IS badge
    02 code TYPE IS FIXED

SET NAME IS works_in;
    OWNER IS dept;
    MEMBER IS emp;
    INSERTION IS MANUAL;
    RETENTION IS OPTIONAL;
    SET SELECTION IS BY APPLICATION;

SET NAME IS carries;
    OWNER IS emp;
    MEMBER IS badge;
    INSERTION IS AUTOMATIC;
    RETENTION IS FIXED;
    SET SELECTION IS BY APPLICATION;
`

func newNetSession(t *testing.T) *Translator {
	t.Helper()
	net, err := netddl.Parse(shopDDL)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := xform.DeriveABNative(net)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mbds.New(ab.Dir, mbds.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return NewNetwork(net, ab, kc.New(sys))
}

func TestNetworkStoreAndFind(t *testing.T) {
	tr := newNetSession(t)
	exec(t, tr, "MOVE 'Sales' TO dname IN dept")
	exec(t, tr, "MOVE 2 TO floor IN dept")
	out := exec(t, tr, "STORE dept")
	if !out.Found {
		t.Fatal("STORE dept failed")
	}
	exec(t, tr, "MOVE 'Sales' TO dname IN dept")
	found := exec(t, tr, "FIND ANY dept USING dname IN dept")
	if !found.Found || found.Key != out.Key {
		t.Fatalf("found = %+v, stored key %d", found, out.Key)
	}
}

func TestNetworkDuplicatesClause(t *testing.T) {
	tr := newNetSession(t)
	exec(t, tr, "MOVE 'Sales' TO dname IN dept")
	exec(t, tr, "STORE dept")
	// dname has DUPLICATES ARE NOT ALLOWED.
	exec(t, tr, "MOVE 'Sales' TO dname IN dept")
	err := execErr(t, tr, "STORE dept")
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("err = %v", err)
	}
}

func TestNetworkManualConnectDisconnect(t *testing.T) {
	tr := newNetSession(t)
	exec(t, tr, "MOVE 'Sales' TO dname IN dept")
	exec(t, tr, "STORE dept")
	exec(t, tr, "MOVE 'Ann' TO ename IN emp")
	exec(t, tr, "MOVE 900 TO pay IN emp")
	exec(t, tr, "STORE emp")
	out := exec(t, tr, "CONNECT emp TO works_in")
	if !hasRequest(out, "UPDATE") {
		t.Errorf("requests = %v", out.Requests)
	}
	owner := exec(t, tr, "FIND OWNER WITHIN works_in")
	if owner.Record != "dept" {
		t.Fatalf("owner = %+v", owner)
	}
	got := exec(t, tr, "GET dname IN dept")
	if got.Values["dname"].AsString() != "Sales" {
		t.Errorf("dname = %v", got.Values)
	}
	// Navigate back and disconnect.
	exec(t, tr, "MOVE 'Ann' TO ename IN emp")
	exec(t, tr, "FIND ANY emp USING ename IN emp")
	exec(t, tr, "DISCONNECT emp FROM works_in")
	err := execErr(t, tr, "DISCONNECT emp FROM works_in")
	if !errors.Is(err, ErrNotConnected) {
		t.Errorf("err = %v", err)
	}
}

func TestNetworkAutomaticSetStore(t *testing.T) {
	tr := newNetSession(t)
	exec(t, tr, "MOVE 'Bob' TO ename IN emp")
	exec(t, tr, "MOVE 500 TO pay IN emp")
	empOut := exec(t, tr, "STORE emp")
	// carries is automatic: STORE badge connects to the current emp.
	exec(t, tr, "MOVE 7001 TO code IN badge")
	out := exec(t, tr, "STORE badge")
	if !hasRequest(out, "<carries, "+itoa(empOut.Key)+">") {
		t.Errorf("automatic set attr missing from INSERT: %v", out.Requests)
	}
	// Members of the emp's carries set.
	first := exec(t, tr, "FIND FIRST badge WITHIN carries")
	if !first.Found || first.Key != out.Key {
		t.Fatalf("badge via set = %+v", first)
	}
	// Automatic STORE without an owner current fails.
	tr2 := newNetSession(t)
	if _, err := tr2.ExecCtx(context.Background(), mustParse(t, "MOVE 1 TO code IN badge")); err != nil {
		t.Fatal(err)
	}
	st, _ := codasyl.ParseStmt("STORE badge")
	if _, err := tr2.ExecCtx(context.Background(), st); !errors.Is(err, ErrNoSetOccurrence) {
		t.Errorf("err = %v", err)
	}
}

func TestNetworkFindNavigation(t *testing.T) {
	tr := newNetSession(t)
	exec(t, tr, "MOVE 'Sales' TO dname IN dept")
	exec(t, tr, "STORE dept")
	for _, e := range []struct {
		name string
		pay  string
	}{{"Ann", "900"}, {"Bob", "800"}, {"Cey", "900"}} {
		exec(t, tr, "MOVE '"+e.name+"' TO ename IN emp")
		exec(t, tr, "MOVE "+e.pay+" TO pay IN emp")
		exec(t, tr, "STORE emp")
		exec(t, tr, "CONNECT emp TO works_in")
		// Re-establish the dept as the set occurrence owner for the next
		// connect (STORE emp changed the run-unit, but set currents stand).
	}
	// Iterate members of works_in for the Sales dept.
	exec(t, tr, "MOVE 'Sales' TO dname IN dept")
	exec(t, tr, "FIND ANY dept USING dname IN dept")
	count := 0
	out := exec(t, tr, "FIND FIRST emp WITHIN works_in")
	for out.Found {
		count++
		out = exec(t, tr, "FIND NEXT emp WITHIN works_in")
		if out.EndOfSet {
			break
		}
	}
	if count != 3 {
		t.Errorf("works_in members = %d, want 3", count)
	}
	// FIND WITHIN CURRENT filters by the UWA.
	exec(t, tr, "MOVE 900 TO pay IN emp")
	wc := exec(t, tr, "FIND emp WITHIN works_in CURRENT USING pay IN emp")
	if !wc.Found {
		t.Fatal("FIND WITHIN CURRENT missed")
	}
	got := exec(t, tr, "GET pay IN emp")
	if got.Values["pay"].AsInt() != 900 {
		t.Errorf("pay = %v", got.Values)
	}
	// FIND DUPLICATE finds the second 900-pay member.
	dup := exec(t, tr, "FIND DUPLICATE WITHIN works_in USING pay IN emp")
	if !dup.Found || dup.Key == wc.Key {
		t.Errorf("duplicate = %+v (first %d)", dup, wc.Key)
	}
}

func TestNetworkEraseConstraints(t *testing.T) {
	tr := newNetSession(t)
	exec(t, tr, "MOVE 'Sales' TO dname IN dept")
	exec(t, tr, "STORE dept")
	exec(t, tr, "MOVE 'Ann' TO ename IN emp")
	exec(t, tr, "MOVE 1 TO pay IN emp")
	exec(t, tr, "STORE emp")
	exec(t, tr, "CONNECT emp TO works_in")
	// dept owns a non-empty works_in occurrence: ERASE aborts.
	exec(t, tr, "MOVE 'Sales' TO dname IN dept")
	exec(t, tr, "FIND ANY dept USING dname IN dept")
	err := execErr(t, tr, "ERASE dept")
	if !errors.Is(err, ErrEraseOwner) {
		t.Errorf("err = %v", err)
	}
	// Disconnect the member; then the dept can be erased.
	exec(t, tr, "MOVE 'Ann' TO ename IN emp")
	exec(t, tr, "FIND ANY emp USING ename IN emp")
	exec(t, tr, "DISCONNECT emp FROM works_in")
	exec(t, tr, "MOVE 'Sales' TO dname IN dept")
	exec(t, tr, "FIND ANY dept USING dname IN dept")
	exec(t, tr, "ERASE dept")
	exec(t, tr, "MOVE 'Sales' TO dname IN dept")
	gone := exec(t, tr, "FIND ANY dept USING dname IN dept")
	if !gone.EndOfSet {
		t.Error("erased dept still findable")
	}
}

func mustParse(t *testing.T, line string) codasyl.Stmt {
	t.Helper()
	st, err := codasyl.ParseStmt(line)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
