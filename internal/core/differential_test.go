package core

import (
	"fmt"
	"sort"
	"testing"

	"mlds/internal/abdm"
)

// The cross-model differential test: the same logical database — employees
// with a name and a pay figure — is defined in all four data models and
// driven through all five language interfaces with equivalent workloads:
//
//	load   Ann 900, Bob 700, Cay 800, Fay 600
//	query  everyone with pay >= 800
//	update Bob's pay to 850
//	delete Fay
//
// After every phase the kernel-level result set — the (ename, pay) pairs a
// raw ABDL RETRIEVE returns from each database's kernel — must be identical
// across the models. The language interfaces differ in how they say it; the
// kernel must not differ in what it stores.

// diffEmp is one employee of the differential workload.
type diffEmp struct {
	name string
	pay  int64
}

// diffDriver loads, updates and deletes employees through one language
// interface.
type diffDriver struct {
	lang   string
	db     *Database
	load   func(t *testing.T, e diffEmp)
	setPay func(t *testing.T, name string, pay int64)
	del    func(t *testing.T, name string)
	// query returns the names with pay >= min, via the language's own
	// query path (not the kernel shortcut).
	query func(t *testing.T, min int64) []string
}

// kernelSet reads the (ename, pay) pairs straight from a database's kernel.
func kernelSet(t *testing.T, db *Database) []string {
	t.Helper()
	res, err := db.ExecABDL("RETRIEVE ((FILE = emp)) (ename, pay)")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(res.Records))
	for _, sr := range res.Records {
		name, _ := sr.Rec.Get("ename")
		pay, _ := sr.Rec.Get("pay")
		out = append(out, fmt.Sprintf("%s=%d", name.AsString(), pay.AsInt()))
	}
	sort.Strings(out)
	return out
}

func newDiffDrivers(t *testing.T, s *System) []*diffDriver {
	t.Helper()
	must := func(sess Session, stmt string) *Outcome {
		t.Helper()
		out, err := sess.Execute(stmt)
		if err != nil {
			t.Fatalf("[%s] %s: %v", sess.Language(), stmt, err)
		}
		return out
	}

	// Relational / SQL.
	relDB, err := s.CreateRelational("diff_rel", "CREATE TABLE emp (ename CHAR(20), pay INTEGER);")
	if err != nil {
		t.Fatal(err)
	}
	sqlSess, err := s.Open("diff_rel", "sql")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sqlSess.Close() })
	sqlDrv := &diffDriver{
		lang: "sql", db: relDB,
		load: func(t *testing.T, e diffEmp) {
			must(sqlSess, fmt.Sprintf("INSERT INTO emp (ename, pay) VALUES ('%s', %d)", e.name, e.pay))
		},
		setPay: func(t *testing.T, name string, pay int64) {
			must(sqlSess, fmt.Sprintf("UPDATE emp SET pay = %d WHERE ename = '%s'", pay, name))
		},
		del: func(t *testing.T, name string) {
			must(sqlSess, fmt.Sprintf("DELETE FROM emp WHERE ename = '%s'", name))
		},
		query: func(t *testing.T, min int64) []string {
			out := must(sqlSess, fmt.Sprintf("SELECT ename FROM emp WHERE pay >= %d", min))
			names := make([]string, 0, len(out.SQL.Rows))
			for _, row := range out.SQL.Rows {
				names = append(names, row[0].AsString())
			}
			return names
		},
	}

	// Hierarchical / DL-I: emp is the root segment.
	hieDB, err := s.CreateHierarchical("diff_hie", "DBD NAME IS payroll\nSEGMENT NAME IS emp\n    FIELD ename CHAR 20\n    FIELD pay INT\n")
	if err != nil {
		t.Fatal(err)
	}
	dliSess, err := s.Open("diff_hie", "dli")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dliSess.Close() })
	dliDrv := &diffDriver{
		lang: "dli", db: hieDB,
		load: func(t *testing.T, e diffEmp) {
			must(dliSess, fmt.Sprintf("ISRT emp (ename = '%s', pay = %d)", e.name, e.pay))
		},
		setPay: func(t *testing.T, name string, pay int64) {
			must(dliSess, fmt.Sprintf("GU emp (ename = '%s')", name))
			must(dliSess, fmt.Sprintf("REPL (pay = %d)", pay))
		},
		del: func(t *testing.T, name string) {
			must(dliSess, fmt.Sprintf("GU emp (ename = '%s')", name))
			must(dliSess, "DLET")
		},
		query: func(t *testing.T, min int64) []string {
			// DL/I has no predicate scan on non-equal comparisons; walk the
			// segment occurrences with GN and filter in the program, as a
			// DL/I application would.
			var names []string
			fresh, err := s.Open("diff_hie", "dli")
			if err != nil {
				t.Fatal(err)
			}
			defer fresh.Close()
			for {
				out, err := fresh.Execute("GN emp")
				if err != nil {
					t.Fatal(err)
				}
				if out.DLI.Status != "" && out.DLI.Status != "OK" {
					break
				}
				if out.DLI.Values["pay"].AsInt() >= min {
					names = append(names, out.DLI.Values["ename"].AsString())
				}
			}
			return names
		},
	}

	// Network / CODASYL-DML.
	netDB, err := s.CreateNetwork("diff_net", `
SCHEMA NAME IS payroll
RECORD NAME IS emp
    02 ename TYPE IS CHARACTER 20
    02 pay TYPE IS FIXED
SET NAME IS system_emp;
    OWNER IS SYSTEM;
    MEMBER IS emp;
    INSERTION IS AUTOMATIC;
    RETENTION IS FIXED;
    SET SELECTION IS BY APPLICATION;
`)
	if err != nil {
		t.Fatal(err)
	}
	dmlSess, err := s.Open("diff_net", "dml")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dmlSess.Close() })
	dmlDrv := &diffDriver{
		lang: "dml", db: netDB,
		load: func(t *testing.T, e diffEmp) {
			must(dmlSess, fmt.Sprintf("MOVE '%s' TO ename IN emp", e.name))
			must(dmlSess, fmt.Sprintf("MOVE %d TO pay IN emp", e.pay))
			must(dmlSess, "STORE emp")
		},
		setPay: func(t *testing.T, name string, pay int64) {
			must(dmlSess, fmt.Sprintf("MOVE '%s' TO ename IN emp", name))
			must(dmlSess, "FIND ANY emp USING ename IN emp")
			must(dmlSess, fmt.Sprintf("MOVE %d TO pay IN emp", pay))
			must(dmlSess, "MODIFY pay IN emp")
		},
		del: func(t *testing.T, name string) {
			must(dmlSess, fmt.Sprintf("MOVE '%s' TO ename IN emp", name))
			must(dmlSess, "FIND ANY emp USING ename IN emp")
			must(dmlSess, "ERASE emp")
		},
		query: func(t *testing.T, min int64) []string {
			// CODASYL-DML is record-at-a-time; answer the set query at the
			// kernel level, as the thesis's KMS does for set-oriented reads.
			res, err := netDB.ExecABDL(fmt.Sprintf("RETRIEVE ((FILE = emp) AND (pay >= %d)) (ename)", min))
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, sr := range res.Records {
				v, _ := sr.Rec.Get("ename")
				names = append(names, v.AsString())
			}
			return names
		},
	}

	// Functional / Daplex.
	funDB, err := s.CreateFunctional("diff_fun", `
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
	dapSess, err := s.Open("diff_fun", "daplex")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dapSess.Close() })
	dapDrv := &diffDriver{
		lang: "daplex", db: funDB,
		load: func(t *testing.T, e diffEmp) {
			must(dapSess, fmt.Sprintf("CREATE emp (ename := '%s', pay := %d);", e.name, e.pay))
		},
		setPay: func(t *testing.T, name string, pay int64) {
			must(dapSess, fmt.Sprintf("LET pay OF emp WHERE ename = '%s' BE %d;", name, pay))
		},
		del: func(t *testing.T, name string) {
			must(dapSess, fmt.Sprintf("DESTROY emp WHERE ename = '%s';", name))
		},
		query: func(t *testing.T, min int64) []string {
			out := must(dapSess, fmt.Sprintf("FOR EACH emp WHERE pay >= %d PRINT ename;", min))
			var names []string
			for _, row := range out.Rows {
				for _, v := range row.Values["ename"] {
					names = append(names, v.AsString())
				}
			}
			return names
		},
	}

	// Attribute-based / ABDL: the kernel language itself, on its own copy.
	abdlDB, err := s.CreateRelational("diff_abdl", "CREATE TABLE emp (ename CHAR(20), pay INTEGER);")
	if err != nil {
		t.Fatal(err)
	}
	abdlSess, err := s.Open("diff_abdl", "abdl")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { abdlSess.Close() })
	abdlDrv := &diffDriver{
		lang: "abdl", db: abdlDB,
		load: func(t *testing.T, e diffEmp) {
			must(abdlSess, fmt.Sprintf("INSERT (<FILE, emp>, <ename, '%s'>, <pay, %d>)", e.name, e.pay))
		},
		setPay: func(t *testing.T, name string, pay int64) {
			must(abdlSess, fmt.Sprintf("UPDATE ((FILE = emp) AND (ename = '%s')) (pay = %d)", name, pay))
		},
		del: func(t *testing.T, name string) {
			must(abdlSess, fmt.Sprintf("DELETE ((FILE = emp) AND (ename = '%s'))", name))
		},
		query: func(t *testing.T, min int64) []string {
			out := must(abdlSess, fmt.Sprintf("RETRIEVE ((FILE = emp) AND (pay >= %d)) (ename)", min))
			var names []string
			for _, sr := range out.Kernel.Records {
				v, _ := sr.Rec.Get("ename")
				names = append(names, v.AsString())
			}
			return names
		},
	}

	return []*diffDriver{sqlDrv, dliDrv, dmlDrv, dapDrv, abdlDrv}
}

// assertAgreement checks that every driver's database holds the same
// kernel-level (ename, pay) set, and that every language's own query path
// names the same employees.
func assertAgreement(t *testing.T, drivers []*diffDriver, phase string, payFloor int64) {
	t.Helper()
	ref := kernelSet(t, drivers[0].db)
	for _, d := range drivers[1:] {
		got := kernelSet(t, d.db)
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("%s: kernel sets diverge: %s=%v, %s=%v",
				phase, drivers[0].lang, ref, d.lang, got)
		}
	}
	var refNames []string
	for i, d := range drivers {
		names := d.query(t, payFloor)
		sort.Strings(names)
		if i == 0 {
			refNames = names
			continue
		}
		if fmt.Sprint(names) != fmt.Sprint(refNames) {
			t.Errorf("%s: query results diverge: %s=%v, %s=%v",
				phase, drivers[0].lang, refNames, d.lang, names)
		}
	}
}

// heldRow is one stored row pointer captured before a workload phase, with
// the content it had then.
type heldRow struct {
	lang string
	id   abdm.RecordID
	rec  *abdm.Record
	key  string
}

// holdRows captures the row pointers every partition of every driver's
// database hands out (Store.Snapshot shares the store's own records) together
// with their content keys. It is the first half of the immutability tripwire:
// stored records are never written to once published, whatever layer a
// statement comes through.
func holdRows(t *testing.T, drivers []*diffDriver) []heldRow {
	t.Helper()
	var held []heldRow
	for _, d := range drivers {
		for pos := 0; ; pos++ {
			st := d.db.Kernel.Store(pos)
			if st == nil {
				break
			}
			recs, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, sr := range recs {
				held = append(held, heldRow{lang: d.lang, id: sr.ID, rec: sr.Rec, key: sr.Rec.Key()})
			}
		}
	}
	return held
}

// assertRowsUntouched is the second half: after the phase every captured
// pointer must still read what it read before — an in-place write through any
// layer (a KMS, the controller, the transaction manager's undo, the store's
// UPDATE) fails it.
func assertRowsUntouched(t *testing.T, held []heldRow, phase string) {
	t.Helper()
	for _, h := range held {
		if got := h.rec.Key(); got != h.key {
			t.Errorf("%s: %s record %d was written in place:\n  before %q\n  after  %q",
				phase, h.lang, h.id, h.key, got)
		}
	}
}

// TestCrossModelDifferential runs the equivalent load/query/update/delete
// workload through all five language interfaces and asserts kernel-level
// agreement after every phase. Run under -race in make check.
func TestCrossModelDifferential(t *testing.T) {
	s := newSystem(t)
	drivers := newDiffDrivers(t, s)

	emps := []diffEmp{{"Ann", 900}, {"Bob", 700}, {"Cay", 800}, {"Fay", 600}}
	for _, d := range drivers {
		// Half the corpus first, so the load phase too runs over held rows.
		for _, e := range emps[:2] {
			d.load(t, e)
		}
	}
	held := holdRows(t, drivers)
	for _, d := range drivers {
		for _, e := range emps[2:] {
			d.load(t, e)
		}
	}
	assertAgreement(t, drivers, "after load", 800)
	assertRowsUntouched(t, held, "load")

	held = holdRows(t, drivers)
	for _, d := range drivers {
		d.setPay(t, "Bob", 850)
	}
	assertAgreement(t, drivers, "after update", 800)
	assertRowsUntouched(t, held, "update")

	held = holdRows(t, drivers)
	for _, d := range drivers {
		d.del(t, "Fay")
	}
	assertAgreement(t, drivers, "after delete", 800)
	assertRowsUntouched(t, held, "delete")

	want := []string{"Ann=900", "Bob=850", "Cay=800"}
	for _, d := range drivers {
		if got := kernelSet(t, d.db); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s final kernel set = %v, want %v", d.lang, got, want)
		}
	}
}
