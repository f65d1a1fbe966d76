package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestDMLRequestsStayInSession: a CODASYL-DML outcome lists the ABDL
// requests its own statement issued, never another session's, although
// every session on the database shares one controller. A Daplex session
// loops over the department file while a DML session FINDs courses. Run
// with -race.
func TestDMLRequestsStayInSession(t *testing.T) {
	s := newSystem(t)
	newLoadedUniv(t, s)
	dml, err := s.Open("university", "dml")
	if err != nil {
		t.Fatal(err)
	}
	dap, err := s.Open("university", "daplex")
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, err := dap.Execute("FOR EACH department PRINT dname;"); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()

	if _, err := dml.Execute("MOVE 'Advanced Database' TO title IN course"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		out, err := dml.Execute("FIND ANY course USING title IN course")
		if err != nil {
			t.Fatal(err)
		}
		if len(out.DML.Requests) == 0 {
			t.Fatalf("FIND %d: no requests recorded", i)
		}
		for _, req := range out.DML.Requests {
			if strings.Contains(req, "department") {
				t.Fatalf("FIND %d: outcome lists another session's request %q", i, req)
			}
		}
	}
}

// TestScriptRunsInSessionTxn: a CODASYL-DML script's statements run through
// the session, so they join its open transaction — a ROLLBACK undoes a
// script's STORE — and count in the session metrics.
func TestScriptRunsInSessionTxn(t *testing.T) {
	s := newSystem(t)
	db, err := s.CreateNetwork("shop", `
SCHEMA NAME IS shop
RECORD NAME IS dept
    02 dname TYPE IS CHARACTER 20
`)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := s.Open("shop", "dml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("BEGIN WORK"); err != nil {
		t.Fatal(err)
	}
	outs, err := RunScript(sess, "MOVE 'Sales' TO dname IN dept\nSTORE dept\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || !outs[1].DML.Found {
		t.Fatalf("script outcomes = %v", outs)
	}
	if _, err := sess.Execute("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	res, err := db.ExecABDL("RETRIEVE ((FILE = dept)) (dname)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Errorf("rolled-back script STORE persisted: %d dept records", len(res.Records))
	}

	var buf strings.Builder
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := `mlds_session_requests_total{db="shop",language="codasyl-dml"} 4`; !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing %q", want)
	}
}

// TestScriptPerformLoop: a PERFORM UNTIL END-OF-SET loop repeats its body
// until the body's last statement runs off the end of its set.
func TestScriptPerformLoop(t *testing.T) {
	s := newSystem(t)
	newLoadedUniv(t, s)
	sess, err := s.Open("university", "dml")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := RunScript(sess, `
FIND FIRST department WITHIN system_department
PERFORM UNTIL END-OF-SET
    GET dname IN department
    FIND NEXT department WITHIN system_department
END-PERFORM
`)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, out := range outs {
		if v, ok := out.DML.Values["dname"]; ok {
			names = append(names, v.AsString())
		}
	}
	if len(names) == 0 || !outs[len(outs)-1].DML.EndOfSet {
		t.Fatalf("loop read %v; last outcome %+v", names, outs[len(outs)-1].DML)
	}
	if want := 1 + 2*len(names); len(outs) != want {
		t.Errorf("%d statements for %d departments, want %d", len(outs), len(names), want)
	}
}
