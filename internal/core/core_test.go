package core

import (
	"bytes"
	"sort"
	"strings"
	"testing"

	"mlds/internal/mbds"
	"mlds/internal/univ"
	"mlds/internal/univgen"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	s := NewSystem(Config{Kernel: mbds.DefaultConfig(2)})
	t.Cleanup(s.Close)
	return s
}

// newLoadedUniv creates and populates the University functional database.
func newLoadedUniv(t *testing.T, s *System) *Database {
	t.Helper()
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
	return db
}

func TestCreateFunctionalDatabase(t *testing.T) {
	s := newSystem(t)
	db := newLoadedUniv(t, s)
	if db.Model != FunctionalModel || db.Mapping == nil || db.Net == nil {
		t.Fatalf("db = %+v", db)
	}
	if _, ok := s.Database("university"); !ok {
		t.Error("catalog lookup failed")
	}
	if _, err := s.CreateFunctional("university", univ.SchemaDDL); err == nil {
		t.Error("duplicate database name accepted")
	}
	infos := s.Databases()
	if len(infos) != 1 || infos[0].Name != "university" || infos[0].Model != FunctionalModel {
		t.Errorf("Databases() = %v", infos)
	}
	if infos[0].Backends != 2 || infos[0].Records == 0 {
		t.Errorf("DatabaseInfo = %+v", infos[0])
	}
}

func TestCreateNetworkDatabase(t *testing.T) {
	s := newSystem(t)
	db, err := s.CreateNetwork("shop", `
SCHEMA NAME IS shop
RECORD NAME IS dept
    02 dname TYPE IS CHARACTER 20
RECORD NAME IS emp
    02 ename TYPE IS CHARACTER 20
    02 pay TYPE IS FIXED
SET NAME IS works_in;
    OWNER IS dept;
    MEMBER IS emp;
    INSERTION IS MANUAL;
    RETENTION IS OPTIONAL;
`)
	if err != nil {
		t.Fatal(err)
	}
	if db.Model != NetworkModel {
		t.Fatalf("model = %v", db.Model)
	}
	// Native DML session: store a dept and an emp, connect, navigate.
	sess, err := s.Open("shop", "dml")
	if err != nil {
		t.Fatal(err)
	}
	steps := []string{
		"MOVE 'Sales' TO dname IN dept",
		"STORE dept",
		"MOVE 'Ann' TO ename IN emp",
		"MOVE 900 TO pay IN emp",
		"STORE emp",
		"CONNECT emp TO works_in",
		"FIND OWNER WITHIN works_in",
	}
	for _, line := range steps {
		if _, err := sess.Execute(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	out, err := sess.Execute("GET dname IN dept")
	if err != nil {
		t.Fatal(err)
	}
	if out.DML.Values["dname"].AsString() != "Sales" {
		t.Errorf("owner dname = %v", out.DML.Values)
	}
}

func TestOpenDMLOnFunctionalDatabase(t *testing.T) {
	// The thesis's goal: a CODASYL-DML session over a functional database.
	s := newSystem(t)
	newLoadedUniv(t, s)
	sess, err := s.Open("university", "dml")
	if err != nil {
		t.Fatal(err)
	}
	outs, err := RunScript(sess, `
MOVE 'Advanced Database' TO title IN course
FIND ANY course USING title IN course
GET course
`)
	if err != nil {
		t.Fatal(err)
	}
	last := outs[len(outs)-1]
	if last.DML.Values["title"].AsString() != "Advanced Database" {
		t.Errorf("values = %v", last.DML.Values)
	}
}

func TestOpenDaplexOnNetworkDatabaseFails(t *testing.T) {
	s := newSystem(t)
	if _, err := s.CreateNetwork("n", "SCHEMA NAME IS n\nRECORD NAME IS r\n    02 a TYPE IS FIXED\n"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("n", "daplex"); err == nil {
		t.Error("Daplex session on a network database accepted")
	}
	if _, err := s.Open("nosuch", "dml"); err == nil {
		t.Error("session on unknown database accepted")
	}
}

func TestExecABDLDirect(t *testing.T) {
	s := newSystem(t)
	db := newLoadedUniv(t, s)
	res, err := db.ExecABDL("RETRIEVE ((FILE = course) AND (credits >= 4)) (title, credits)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) == 0 {
		t.Fatal("no records via direct ABDL")
	}
	for _, sr := range res.Records {
		if v, _ := sr.Rec.Get("credits"); v.AsInt() < 4 {
			t.Errorf("record %v violates the qualification", sr.Rec)
		}
	}
}

// TestCrossModelEquivalence is experiment E8: the same functional database
// answers identically through the Daplex interface and through translated
// CODASYL-DML.
func TestCrossModelEquivalence(t *testing.T) {
	s := newSystem(t)
	newLoadedUniv(t, s)

	// Daplex: CS students' names.
	dap, err := s.Open("university", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := dap.Execute("FOR EACH student WHERE major = 'Computer Science' PRINT pname;")
	if err != nil {
		t.Fatal(err)
	}
	var daplexNames []string
	for _, r := range rows.Rows {
		daplexNames = append(daplexNames, r.Values["pname"][0].AsString())
	}
	sort.Strings(daplexNames)

	// CODASYL-DML: iterate the person system set, probing the student
	// subtype through the ISA set and filtering by major.
	dml, err := s.Open("university", "dml")
	if err != nil {
		t.Fatal(err)
	}
	var dmlNames []string
	if _, err := dml.Execute("FIND FIRST person WITHIN system_person"); err != nil {
		t.Fatal(err)
	}
	for {
		out, err := dml.Execute("FIND FIRST student WITHIN person_student")
		if err != nil {
			t.Fatal(err)
		}
		if out.DML.Found {
			g, err := dml.Execute("GET major IN student")
			if err != nil {
				t.Fatal(err)
			}
			if g.DML.Values["major"].AsString() == "Computer Science" {
				if _, err := dml.Execute("FIND CURRENT person WITHIN person_student"); err == nil {
					t.Fatal("person is the owner of person_student; FIND CURRENT must reject it")
				}
				p, err := dml.Execute("FIND OWNER WITHIN person_student")
				if err != nil {
					t.Fatal(err)
				}
				_ = p
				name, err := dml.Execute("GET pname IN person")
				if err != nil {
					t.Fatal(err)
				}
				dmlNames = append(dmlNames, name.DML.Values["pname"].AsString())
			}
		}
		nxt, err := dml.Execute("FIND NEXT person WITHIN system_person")
		if err != nil {
			t.Fatal(err)
		}
		if nxt.DML.EndOfSet {
			break
		}
	}
	sort.Strings(dmlNames)

	if strings.Join(daplexNames, "|") != strings.Join(dmlNames, "|") {
		t.Errorf("cross-model results differ:\n daplex: %v\n dml:    %v", daplexNames, dmlNames)
	}
	if len(daplexNames) != 6 {
		t.Errorf("CS students = %d, want 6", len(daplexNames))
	}
}

// TestSharedKernel is experiment E9: both interfaces operate on one kernel —
// an update through Daplex is visible to a concurrent CODASYL-DML session.
func TestSharedKernel(t *testing.T) {
	s := newSystem(t)
	newLoadedUniv(t, s)
	dap, _ := s.Open("university", "daplex")
	dml, _ := s.Open("university", "dml")

	if _, err := dap.Execute("LET credits OF course WHERE title = 'Advanced Database' BE 9;"); err != nil {
		t.Fatal(err)
	}
	if _, err := dml.Execute("MOVE 'Advanced Database' TO title IN course"); err != nil {
		t.Fatal(err)
	}
	if _, err := dml.Execute("FIND ANY course USING title IN course"); err != nil {
		t.Fatal(err)
	}
	out, err := dml.Execute("GET credits IN course")
	if err != nil {
		t.Fatal(err)
	}
	if out.DML.Values["credits"].AsInt() != 9 {
		t.Errorf("Daplex update invisible to DML session: %v", out.DML.Values)
	}
	// And the reverse: a DML MODIFY visible to Daplex.
	if _, err := dml.Execute("MOVE 2 TO credits IN course"); err != nil {
		t.Fatal(err)
	}
	if _, err := dml.Execute("MODIFY credits IN course"); err != nil {
		t.Fatal(err)
	}
	rows, err := dap.Execute("FOR EACH course WHERE title = 'Advanced Database' PRINT credits;")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) != 1 || rows.Rows[0].Values["credits"][0].AsInt() != 2 {
		t.Errorf("DML update invisible to Daplex session: %v", rows.Rows)
	}
}

func TestModelString(t *testing.T) {
	if NetworkModel.String() != "network" || FunctionalModel.String() != "functional" {
		t.Error("Model.String wrong")
	}
}

// kernelWith sizes a kernel config for persistence tests.
func kernelWith(n int) mbds.Config { return mbds.DefaultConfig(n) }

func TestRelationalDatabaseSQL(t *testing.T) {
	s := newSystem(t)
	db, err := s.CreateRelational("shop", `
CREATE TABLE emp (
    ename CHAR(20) NOT NULL UNIQUE,
    pay INTEGER
);
`)
	if err != nil {
		t.Fatal(err)
	}
	if db.Model != RelationalModel {
		t.Fatalf("model = %v", db.Model)
	}
	sess, err := s.Open("shop", "sql")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Execute("INSERT INTO emp (ename, pay) VALUES ('Ann', 900)"); err != nil {
		t.Fatal(err)
	}
	rs, err := sess.Execute("SELECT ename, pay FROM emp WHERE pay >= 100")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.SQL.Rows) != 1 || rs.SQL.Rows[0][0].AsString() != "Ann" {
		t.Errorf("rows = %v", rs.SQL.Rows)
	}
	// SQL sessions are only for relational databases.
	if _, err := s.Open("nosuch", "sql"); err == nil {
		t.Error("phantom database accepted")
	}
	newLoadedUniv(t, s)
	if _, err := s.Open("university", "sql"); err == nil {
		t.Error("SQL session on functional database accepted")
	}
	if _, err := s.Open("shop", "dml"); err == nil {
		t.Error("DML session on relational database accepted")
	}
	// ABDL works against any model's kernel.
	res, err := db.ExecABDL("RETRIEVE ((FILE = emp)) (COUNT(ename))")
	if err != nil {
		t.Fatal(err)
	}
	if res.Groups[0].Aggs[0].Val.AsInt() != 1 {
		t.Errorf("count = %v", res.Groups[0].Aggs[0].Val)
	}
}

func TestSaveRestoreRelationalDatabase(t *testing.T) {
	s1 := newSystem(t)
	db1, err := s1.CreateRelational("shop", "CREATE TABLE t (a INTEGER, b CHAR(5));")
	if err != nil {
		t.Fatal(err)
	}
	sess, _ := s1.Open("shop", "sql")
	if _, err := sess.Execute("INSERT INTO t (a, b) VALUES (1, 'x')"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := newSystem(t)
	db2, err := s2.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Model != RelationalModel || db2.Kernel.Len() != 1 {
		t.Fatalf("restored %v with %d records", db2.Model, db2.Kernel.Len())
	}
	sess2, _ := s2.Open("shop", "sql")
	rs, err := sess2.Execute("SELECT a, b FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.SQL.Rows) != 1 || rs.SQL.Rows[0][0].AsInt() != 1 {
		t.Errorf("rows = %v", rs.SQL.Rows)
	}
}

func TestHierarchicalDatabaseDLI(t *testing.T) {
	s := newSystem(t)
	db, err := s.CreateHierarchical("school", `
DBD NAME IS school
SEGMENT NAME IS dept
    FIELD dname CHAR 20
SEGMENT NAME IS course PARENT IS dept
    FIELD title CHAR 30
`)
	if err != nil {
		t.Fatal(err)
	}
	if db.Model != HierarchicalModel {
		t.Fatalf("model = %v", db.Model)
	}
	sess, err := s.Open("school", "dli")
	if err != nil {
		t.Fatal(err)
	}
	steps := []string{
		"ISRT dept (dname = 'CS')",
		"ISRT course (title = 'DB')",
		"ISRT course (title = 'OS')",
	}
	for _, c := range steps {
		out, err := sess.Execute(c)
		if err != nil || out.DLI.Status != "" {
			t.Fatalf("%s: %v %q", c, err, out.DLI.Status)
		}
	}
	out, err := sess.Execute("GU dept (dname = 'CS') course (title = 'OS')")
	if err != nil || out.DLI.Status != "" {
		t.Fatalf("GU: %v %q", err, out.DLI.Status)
	}
	if out.DLI.Values["title"].AsString() != "OS" {
		t.Errorf("values = %v", out.DLI.Values)
	}
	if _, err := s.Open("nosuch", "dli"); err == nil {
		t.Error("phantom database accepted")
	}
	if _, err := s.Open("school", "sql"); err == nil {
		t.Error("SQL session on hierarchical database accepted")
	}

	// Save/restore round trip.
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	s2 := newSystem(t)
	db2, err := s2.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sess2, err := s2.Open("school", "dli")
	if err != nil {
		t.Fatal(err)
	}
	again, err := sess2.Execute("GU dept (dname = 'CS') course (title = 'DB')")
	if err != nil || again.DLI.Status != "" {
		t.Fatalf("restored GU: %v %q", err, again.DLI.Status)
	}
	// Key allocation resumes: a fresh ISRT must not collide.
	nw, err := sess2.Execute("ISRT course (title = 'New')")
	if err != nil || nw.DLI.Status != "" {
		t.Fatal(err)
	}
	if nw.DLI.Key <= again.DLI.Key && db2.Kernel.Len() < 4 {
		t.Errorf("key allocation did not resume: %d", nw.DLI.Key)
	}
}
