package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"mlds/internal/cdc"
	"mlds/internal/kc"
	"mlds/internal/wire"
)

// attachJournal gives a database the file-backed journal the lossless watch
// path rides on.
func attachJournal(t *testing.T, db *Database) {
	t.Helper()
	jf, err := kc.OpenJournalFile(filepath.Join(t.TempDir(), db.Name+".journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Ctrl.AttachJournalFile(jf); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jf.Close() })
}

// nextChange reads one change with a deadline.
func nextChange(t *testing.T, w *cdc.Watcher) cdc.Change {
	t.Helper()
	select {
	case c, ok := <-w.C:
		if !ok {
			t.Fatalf("watch closed early: %v", w.Err())
		}
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for a change")
	}
	panic("unreachable")
}

// drainToReady consumes the initial load and returns the loaded ename set.
func drainToReady(t *testing.T, w *cdc.Watcher) []string {
	t.Helper()
	var names []string
	for {
		c := nextChange(t, w)
		switch c.Op {
		case cdc.OpLoad:
			v, _ := c.Rec.Get("ename")
			names = append(names, v.AsString())
		case cdc.OpReady:
			sort.Strings(names)
			return names
		default:
			t.Fatalf("unexpected %s before ready", c.Op)
		}
	}
}

func TestWatchVerbRecognition(t *testing.T) {
	cases := []struct {
		text, verb string
	}{
		{"WATCH SELECT * FROM emp", "watch"},
		{"  watch select x from f ;", "watch"},
		{"CREATE VIEW v AS SELECT * FROM emp", "create-view"},
		{"create view v as select * from emp;", "create-view"},
		{"DROP VIEW v", "drop-view"},
		{"SHOW VIEWS", "show-views"},
		{"show views;", "show-views"},
	}
	for _, c := range cases {
		verb, _, ok := watchVerb(c.text)
		if !ok || verb != c.verb {
			t.Errorf("watchVerb(%q) = %q, %v; want %q", c.text, verb, ok, c.verb)
		}
	}
	for _, text := range []string{
		"WATCH", "SELECT * FROM emp", "CREATE TABLE t (x INTEGER)",
		"DROP VIEW", "DROP VIEW a b", "SHOW VIEWS now", "BEGIN WORK", "",
	} {
		if verb, _, ok := watchVerb(text); ok {
			t.Errorf("watchVerb(%q) matched %q", text, verb)
		}
	}
}

// TestWatchAcrossLanguages opens WATCH through each of the five language
// interfaces — the statement, the initial load, the change feed and the
// predicate-membership transitions must behave identically whatever the data
// model underneath.
func TestWatchAcrossLanguages(t *testing.T) {
	s := newSystem(t)
	drivers := newDiffDrivers(t, s)
	open := map[string]func(string) (Session, error){
		"sql":    func(db string) (Session, error) { return s.Open(db, "sql") },
		"dli":    func(db string) (Session, error) { return s.Open(db, "dli") },
		"dml":    func(db string) (Session, error) { return s.Open(db, "dml") },
		"daplex": func(db string) (Session, error) { return s.Open(db, "daplex") },
		"abdl":   func(db string) (Session, error) { return s.Open(db, "abdl") },
	}
	for _, d := range drivers {
		t.Run(d.lang, func(t *testing.T) {
			attachJournal(t, d.db)
			sess, err := open[d.lang](d.db.Name)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()

			out, err := sess.Execute("WATCH SELECT ename, pay FROM emp WHERE pay >= 800")
			if err != nil {
				t.Fatal(err)
			}
			if out.Watch == nil || out.Rendered != "watch established" {
				t.Fatalf("outcome = %+v", out)
			}
			w := out.Watch
			defer w.Close()
			if names := drainToReady(t, w); len(names) != 0 {
				t.Fatalf("initial load of an empty database = %v", names)
			}

			// A qualifying row arrives, in the language's own dialect.
			d.load(t, diffEmp{"Ann", 900})
			c := nextChange(t, w)
			if c.Op != cdc.OpInsert {
				t.Fatalf("after load: %v", c)
			}
			if v, _ := c.Rec.Get("ename"); v.AsString() != "Ann" {
				t.Fatalf("insert image = %v", c.Rec)
			}
			// A non-qualifying row is invisible.
			d.load(t, diffEmp{"Bob", 100})
			// Dropping Ann under the floor leaves the result set.
			d.setPay(t, "Ann", 200)
			c = nextChange(t, w)
			if c.Op != cdc.OpDelete {
				t.Fatalf("after pay cut: %v (Bob's insert leaked?)", c)
			}
			// Raising Bob over the floor enters it.
			d.setPay(t, "Bob", 850)
			c = nextChange(t, w)
			if c.Op != cdc.OpInsert {
				t.Fatalf("after raise: %v", c)
			}
			if v, _ := c.Rec.Get("ename"); v.AsString() != "Bob" {
				t.Fatalf("raise image = %v", c.Rec)
			}
		})
	}
}

// TestSessionWatchChannelAPI is the first-class Go path: Session.Watch
// without statement text.
func TestSessionWatchChannelAPI(t *testing.T) {
	s := newSystem(t)
	db, err := s.CreateRelational("w_rel", "CREATE TABLE emp (ename CHAR(20), pay INTEGER);")
	if err != nil {
		t.Fatal(err)
	}
	attachJournal(t, db)
	sess, err := s.Open("w_rel", "sql")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Execute("INSERT INTO emp (ename, pay) VALUES ('Ann', 900)"); err != nil {
		t.Fatal(err)
	}

	w, err := sess.Watch("SELECT ename FROM emp WHERE pay >= 800")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if names := drainToReady(t, w); len(names) != 1 || names[0] != "Ann" {
		t.Fatalf("initial load = %v", names)
	}
	if _, err := sess.Execute("INSERT INTO emp (ename, pay) VALUES ('Cay', 820)"); err != nil {
		t.Fatal(err)
	}
	if c := nextChange(t, w); c.Op != cdc.OpInsert {
		t.Fatalf("change = %v", c)
	}

	// Bad queries are parse errors, not watches.
	if _, err := sess.Watch("DELETE FROM emp"); err == nil {
		t.Fatal("non-SELECT watch accepted")
	}
	var pe *ParseError
	if _, err := sess.Watch("SELECT COUNT(*) FROM emp"); !errors.As(err, &pe) {
		t.Fatalf("aggregate watch error = %v, want ParseError", err)
	}
}

// viewSet renders a view's rows for comparison with a kernel recompute.
func viewSet(v *cdc.View) []string {
	var out []string
	for _, sr := range v.Rows() {
		name, _ := sr.Rec.Get("ename")
		pay, _ := sr.Rec.Get("pay")
		out = append(out, fmt.Sprintf("%s=%d", name.AsString(), pay.AsInt()))
	}
	sort.Strings(out)
	return out
}

// recomputeSet answers the view's defining query directly against the kernel.
func recomputeSet(t *testing.T, db *Database, minPay int64) []string {
	t.Helper()
	res, err := db.ExecABDL(fmt.Sprintf("RETRIEVE ((FILE = emp) AND (pay >= %d)) (ename, pay)", minPay))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, sr := range res.Records {
		name, _ := sr.Rec.Get("ename")
		pay, _ := sr.Rec.Get("pay")
		out = append(out, fmt.Sprintf("%s=%d", name.AsString(), pay.AsInt()))
	}
	sort.Strings(out)
	return out
}

func waitView(t *testing.T, v *cdc.View) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := v.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestViewVerbs drives CREATE VIEW / SHOW VIEWS / DROP VIEW through a SQL
// session and checks the registry semantics and error codes.
func TestViewVerbs(t *testing.T) {
	s := newSystem(t)
	db, err := s.CreateRelational("v_rel", "CREATE TABLE emp (ename CHAR(20), pay INTEGER);")
	if err != nil {
		t.Fatal(err)
	}
	attachJournal(t, db)
	sess, err := s.Open("v_rel", "sql")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	must := func(stmt string) *Outcome {
		t.Helper()
		out, err := sess.Execute(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		return out
	}

	must("INSERT INTO emp (ename, pay) VALUES ('Ann', 900)")
	must("INSERT INTO emp (ename, pay) VALUES ('Bob', 700)")

	out := must("CREATE VIEW wellpaid AS SELECT ename, pay FROM emp WHERE pay >= 800")
	if out.Rendered != "view wellpaid over emp created" {
		t.Fatalf("rendered = %q", out.Rendered)
	}
	v, ok := db.View("WELLPAID") // lookup is case-insensitive
	if !ok {
		t.Fatal("view not registered")
	}
	// CREATE VIEW blocks on the initial load: queryable immediately.
	if got := viewSet(v); fmt.Sprint(got) != fmt.Sprint([]string{"Ann=900"}) {
		t.Fatalf("initial view = %v", got)
	}

	// Incremental maintenance across the languages' shared kernel.
	must("UPDATE emp SET pay = 850 WHERE ename = 'Bob'")
	waitView(t, v)
	if got, want := viewSet(v), recomputeSet(t, db, 800); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after update: view %v != recompute %v", got, want)
	}

	if _, err := sess.Execute("CREATE VIEW wellpaid AS SELECT ename FROM emp"); !errors.Is(err, ErrDupView) {
		t.Fatalf("duplicate view error = %v", err)
	}
	if CodeOf(errors.Unwrap(fmt.Errorf("w: %w", ErrDupView))) != wire.CodeView {
		t.Fatal("ErrDupView does not map to CodeView")
	}

	show := must("SHOW VIEWS")
	if show.Rendered == "no views" || !strings.Contains(show.Rendered, "wellpaid") {
		t.Fatalf("SHOW VIEWS = %q", show.Rendered)
	}

	if _, err := sess.Execute("CREATE VIEW bad AS SELECT nosuch FROM emp"); err == nil {
		t.Fatal("view over an unknown column accepted")
	}
	if _, ok := db.View("bad"); ok {
		t.Fatal("failed view left registered")
	}

	out = must("DROP VIEW wellpaid")
	if out.Rendered != "view wellpaid dropped" {
		t.Fatalf("rendered = %q", out.Rendered)
	}
	if _, err := sess.Execute("DROP VIEW wellpaid"); !errors.Is(err, ErrNoView) {
		t.Fatalf("double drop error = %v", err)
	}
	if must("SHOW VIEWS").Rendered != "no views" {
		t.Fatal("view survived DROP VIEW")
	}
}

// TestCrossModelView is the tentpole's cross-model case, validated the way
// the cross-model differential suite validates the languages: a
// relational-style materialized view (SQL text, row set semantics) maintained
// over the *functional* database's change stream, driven through Daplex. At
// every quiescent point the view must equal a full recomputation against the
// functional database's kernel.
func TestCrossModelView(t *testing.T) {
	s := newSystem(t)
	db, err := s.CreateFunctional("payroll_fun", `
DATABASE payroll IS
ENTITY emp IS
    ename : STRING(20);
    pay   : INTEGER;
END ENTITY;

END DATABASE;
`)
	if err != nil {
		t.Fatal(err)
	}
	attachJournal(t, db)
	sess, err := s.Open("payroll_fun", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	must := func(stmt string) {
		t.Helper()
		if _, err := sess.Execute(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}

	// The view is created through the Daplex session with SQL view text —
	// the cross-model seam itself.
	must("CREATE VIEW wellpaid AS SELECT ename, pay FROM emp WHERE pay >= 800")
	v, ok := db.View("wellpaid")
	if !ok {
		t.Fatal("view not registered")
	}

	check := func(phase string) {
		t.Helper()
		waitView(t, v)
		got, want := viewSet(v), recomputeSet(t, db, 800)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: view %v != functional recompute %v", phase, got, want)
		}
	}

	// The differential suite's workload, spoken in Daplex.
	for _, e := range []diffEmp{{"Ann", 900}, {"Bob", 700}, {"Cay", 800}, {"Fay", 600}} {
		must(fmt.Sprintf("CREATE emp (ename := '%s', pay := %d);", e.name, e.pay))
	}
	check("after load")
	if got := viewSet(v); fmt.Sprint(got) != fmt.Sprint([]string{"Ann=900", "Cay=800"}) {
		t.Fatalf("after load: view = %v", got)
	}

	must("LET pay OF emp WHERE ename = 'Bob' BE 850;")
	check("after update into the view")

	must("LET pay OF emp WHERE ename = 'Cay' BE 100;")
	check("after update out of the view")

	must("DESTROY emp WHERE ename = 'Ann';")
	check("after delete")

	if got := viewSet(v); fmt.Sprint(got) != fmt.Sprint([]string{"Bob=850"}) {
		t.Fatalf("final view = %v", got)
	}
}

// TestSystemCloseStopsViews: System.Close must stop view maintenance before
// the kernels go down, leaving views closed without error.
func TestSystemCloseStopsViews(t *testing.T) {
	s := NewSystem(Config{})
	db, err := s.CreateRelational("c_rel", "CREATE TABLE emp (ename CHAR(20), pay INTEGER);")
	if err != nil {
		t.Fatal(err)
	}
	attachJournal(t, db)
	def, err := cdc.ParseQuery("SELECT ename FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	v, err := db.CreateView("v1", def)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	select {
	case <-v.Ready():
	default:
		t.Fatal("view not settled after Close")
	}
	if err := v.Err(); err != nil {
		t.Fatalf("view ended with error: %v", err)
	}
	if len(db.Views()) != 0 {
		t.Fatal("views survived System.Close")
	}
}
