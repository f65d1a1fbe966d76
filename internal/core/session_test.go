package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"mlds/internal/mbds"
	"mlds/internal/obs"
	"mlds/internal/univ"
	"mlds/internal/univgen"
)

func TestOpenDispatchesEveryLanguage(t *testing.T) {
	s := newSystem(t)
	newLoadedUniv(t, s)
	if _, err := s.CreateRelational("shop", "CREATE TABLE emp (ename CHAR(20) NOT NULL, pay INTEGER);"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateHierarchical("school", "DBD NAME IS school\nSEGMENT NAME IS dept\n    FIELD dname CHAR 20\n"); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		db, spelling, lang string
	}{
		{"university", "dml", LangDML},
		{"university", "CODASYL", LangDML},
		{"university", "codasyl-dml", LangDML},
		{"university", "Daplex", LangDaplex},
		{"university", "abdl", LangABDL},
		{"shop", "sql", LangSQL},
		{"school", "dli", LangDLI},
		{"school", "DL/I", LangDLI},
	}
	for _, c := range cases {
		sess, err := s.Open(c.db, c.spelling)
		if err != nil {
			t.Fatalf("Open(%q, %q): %v", c.db, c.spelling, err)
		}
		if sess.Language() != c.lang {
			t.Errorf("Open(%q, %q).Language() = %q, want %q", c.db, c.spelling, sess.Language(), c.lang)
		}
		if err := sess.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}

	if _, err := s.Open("university", "cobol"); err == nil {
		t.Error("unknown language accepted")
	}
}

func TestOpenSentinelErrors(t *testing.T) {
	s := newSystem(t)
	newLoadedUniv(t, s)

	if _, err := s.Open("nope", "dml"); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("missing database: err = %v, want ErrNoDatabase", err)
	}
	if _, err := s.Open("university", "sql"); !errors.Is(err, ErrWrongModel) {
		t.Errorf("SQL on functional: err = %v, want ErrWrongModel", err)
	}
	if _, err := s.Open("university", "dli"); !errors.Is(err, ErrWrongModel) {
		t.Errorf("DL/I on functional: err = %v, want ErrWrongModel", err)
	}
	if _, err := s.Open("missing", "daplex"); !errors.Is(err, ErrNoDatabase) {
		t.Errorf("Daplex on missing: err = %v, want ErrNoDatabase", err)
	}
}

func TestSessionExecuteThroughInterface(t *testing.T) {
	s := newSystem(t)
	newLoadedUniv(t, s)
	sess, err := s.Open("university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Execute("FOR EACH department PRINT dname;")
	if err != nil {
		t.Fatal(err)
	}
	if out.Language != LangDaplex || len(out.Rows) == 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if !strings.Contains(out.Rendered, "dname") {
		t.Errorf("Rendered = %q", out.Rendered)
	}
	if out.Wall <= 0 || out.Sim <= 0 {
		t.Errorf("Wall = %v Sim = %v, want both > 0", out.Wall, out.Sim)
	}
}

// TestTracedDMLRequest is the acceptance scenario: with tracing on, one
// CODASYL-DML Execute against the University database yields parse,
// KMS-translate, per-backend KC exec, and KFS format spans, each with a
// non-zero duration.
func TestTracedDMLRequest(t *testing.T) {
	s := NewSystem(Config{Kernel: mbds.DefaultConfig(2), Tracing: true})
	t.Cleanup(s.Close)
	newLoadedUniv(t, s)
	sess, err := s.Open("university", "dml")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("MOVE 'Advanced Database' TO title IN course"); err != nil {
		t.Fatal(err)
	}
	// FIND ANY goes through the whole pipeline: it is translated to a kernel
	// RETRIEVE that fans out to every backend. (GET serves from the cached
	// current record, so it would show no kernel spans.)
	out, err := sess.Execute("FIND ANY course USING title IN course")
	if err != nil {
		t.Fatal(err)
	}

	root := out.Trace
	if root == nil {
		t.Fatal("Tracing on but Outcome.Trace is nil")
	}
	if root.Name != "request" || root.Attr("db") != "university" || root.Attr("language") != LangDML {
		t.Errorf("root span = %s attrs db=%q language=%q", root.Name, root.Attr("db"), root.Attr("language"))
	}
	for _, name := range []string{"parse", "kms.translate", "kc.exec", "kfs.format"} {
		sp := root.Find(name)
		if sp == nil {
			t.Fatalf("span %q missing from trace:\n%s", name, root)
		}
		if sp.Duration() <= 0 {
			t.Errorf("span %q has zero duration", name)
		}
	}
	// The kernel fans the RETRIEVE out to the backends: the kc.exec span
	// holds one backend.exec child per backend that served it.
	execs := root.FindAll("backend.exec")
	if len(execs) == 0 {
		t.Fatalf("no backend.exec spans in trace:\n%s", root)
	}
	for _, sp := range execs {
		if sp.Duration() <= 0 {
			t.Errorf("backend.exec (backend %s) has zero duration", sp.Attr("backend"))
		}
	}
	if root.Find("kc.exec").Sim() <= 0 {
		t.Error("kc.exec span charged no simulated time")
	}
	if out.Sim <= 0 {
		t.Error("outcome charged no simulated time")
	}
}

func TestSessionMetricsAndSlowLog(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewSystem(Config{
		Kernel:        mbds.DefaultConfig(2),
		Metrics:       reg,
		SlowThreshold: time.Nanosecond, // everything is slow
		SlowLogSize:   4,
	})
	t.Cleanup(s.Close)
	db, err := s.CreateFunctional("university", univ.SchemaDDL)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := univgen.Populate(db.Mapping, db.AB, univgen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadInstance(inst); err != nil {
		t.Fatal(err)
	}

	sess, err := s.Open("university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("FOR EACH department PRINT dname;"); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("THIS IS NOT DAPLEX"); err == nil {
		t.Fatal("parse error expected")
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`mlds_session_requests_total{db="university",language="daplex"} 2`,
		`mlds_session_errors_total{db="university",language="daplex"} 1`,
		`mlds_kernel_requests_total{db="university"}`,
		`mlds_backend_requests_total{backend="0",db="university"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	entries := s.SlowLog().Entries()
	if len(entries) == 0 {
		t.Fatal("slow log empty with a 1ns threshold")
	}
	last := entries[len(entries)-1]
	if last.DB != "university" || last.Language != LangDaplex || last.Wall <= 0 {
		t.Errorf("slow entry = %+v", last)
	}
	if s.SlowLog().Total() < uint64(len(entries)) {
		t.Errorf("Total() = %d < %d entries", s.SlowLog().Total(), len(entries))
	}
}

// TestOutcomeSimIsTheStatementsOwn: a statement's Outcome.Sim is the
// simulated kernel time of its own requests, so a point SELECT reads the
// same figure alone and while another session scans the table.
func TestOutcomeSimIsTheStatementsOwn(t *testing.T) {
	s, _ := newShop(t, Config{})
	sess, err := s.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := sess.Execute(fmt.Sprintf("INSERT INTO emp (ename, pay) VALUES ('e%d', %d);", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	const point = "SELECT ename FROM emp WHERE ename = 'e7';"
	alone, err := sess.Execute(point)
	if err != nil {
		t.Fatal(err)
	}
	if alone.Sim <= 0 {
		t.Fatalf("lone point SELECT charged Sim %v, want > 0", alone.Sim)
	}

	scanner, err := s.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	scanErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scanErr <- nil
				return
			default:
			}
			if _, err := scanner.Execute("SELECT ename, pay FROM emp WHERE pay >= 0;"); err != nil {
				scanErr <- err
				return
			}
		}
	}()
	differ := 0
	for i := 0; i < 200; i++ {
		out, err := sess.Execute(point)
		if err != nil {
			t.Fatal(err)
		}
		if out.Sim != alone.Sim {
			differ++
		}
	}
	close(stop)
	if err := <-scanErr; err != nil {
		t.Fatal(err)
	}
	if differ > 0 {
		t.Fatalf("%d of 200 point SELECTs under a concurrent scan charged a Sim other than the lone run's %v", differ, alone.Sim)
	}
}
