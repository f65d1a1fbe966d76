package dapkms

import (
	"context"
	"strings"
	"testing"

	"mlds/internal/abdm"
	"mlds/internal/daplex"
	"mlds/internal/kc"
	"mlds/internal/univgen"
)

// execText parses one statement and executes it, as a session does.
func execText(i *Interface, src string) ([]Row, error) {
	st, err := daplex.ParseDML(src)
	if err != nil {
		return nil, err
	}
	return i.ExecCtx(context.Background(), st)
}

func newInterface(t *testing.T) *Interface {
	t.Helper()
	db, err := univgen.Generate(univgen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := db.NewKernel(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	if _, err := db.Load(sys); err != nil {
		t.Fatal(err)
	}
	ctrl := kc.New(sys)
	ctrl.SeedKeys(db.Instance.MaxKey())
	return New(db.Mapping, db.AB, ctrl)
}

func run(t *testing.T, i *Interface, src string) []Row {
	t.Helper()
	rows, err := execText(i, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return rows
}

func TestForEachSimple(t *testing.T) {
	i := newInterface(t)
	rows := run(t, i, "FOR EACH course PRINT title, credits;")
	if len(rows) != univgen.SmallConfig().Courses {
		t.Fatalf("courses = %d", len(rows))
	}
	for _, r := range rows {
		if len(r.Values["title"]) != 1 || len(r.Values["credits"]) != 1 {
			t.Errorf("row %d values = %v", r.Key, r.Values)
		}
	}
}

func TestForEachWhere(t *testing.T) {
	i := newInterface(t)
	rows := run(t, i, "FOR EACH student WHERE major = 'Computer Science' PRINT pname, major;")
	if len(rows) != 6 {
		t.Fatalf("CS students = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Values["major"][0].AsString() != "Computer Science" {
			t.Errorf("row %d major = %v", r.Key, r.Values["major"])
		}
		// pname is inherited from person — a cross-file key join.
		if len(r.Values["pname"]) != 1 || !strings.HasPrefix(r.Values["pname"][0].AsString(), "Student") {
			t.Errorf("row %d pname = %v", r.Key, r.Values["pname"])
		}
	}
}

func TestForEachInheritedPredicate(t *testing.T) {
	i := newInterface(t)
	// Filter students by an inherited (person) function.
	rows := run(t, i, "FOR EACH student WHERE pname = 'Student 0000' PRINT major;")
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestForEachNumericComparison(t *testing.T) {
	i := newInterface(t)
	all := run(t, i, "FOR EACH student PRINT gpa;")
	some := run(t, i, "FOR EACH student WHERE gpa >= 3.0 PRINT gpa;")
	if len(some) == 0 || len(some) >= len(all) {
		t.Errorf("gpa filter: %d of %d", len(some), len(all))
	}
	for _, r := range some {
		if r.Values["gpa"][0].AsFloat() < 3.0 {
			t.Errorf("row %d gpa = %v", r.Key, r.Values["gpa"])
		}
	}
}

func TestForEachMultiValued(t *testing.T) {
	i := newInterface(t)
	rows := run(t, i, "FOR EACH student WHERE pname = 'Student 0000' PRINT enrollments;")
	if len(rows) != 1 {
		t.Fatal("student not found")
	}
	if len(rows[0].Values["enrollments"]) != univgen.SmallConfig().EnrollPerStudent {
		t.Errorf("enrollments = %v", rows[0].Values["enrollments"])
	}
}

func TestForEachUnknowns(t *testing.T) {
	i := newInterface(t)
	if _, err := execText(i, "FOR EACH nothing PRINT x;"); err == nil {
		t.Error("unknown type accepted")
	}
	if _, err := execText(i, "FOR EACH student PRINT nothing;"); err == nil {
		t.Error("unknown function accepted")
	}
	// rank belongs to faculty, not student.
	if _, err := execText(i, "FOR EACH student PRINT rank;"); err == nil {
		t.Error("inapplicable function accepted")
	}
}

func TestCreateAndRetrieve(t *testing.T) {
	i := newInterface(t)
	run(t, i, "CREATE student (pname := 'Zed', ssn := 555000111, major := 'History', gpa := 3.25);")
	rows := run(t, i, "FOR EACH student WHERE ssn = 555000111 PRINT pname, major, gpa;")
	if len(rows) != 1 {
		t.Fatalf("created student not found: %v", rows)
	}
	v := rows[0].Values
	if v["pname"][0].AsString() != "Zed" || v["major"][0].AsString() != "History" || v["gpa"][0].AsFloat() != 3.25 {
		t.Errorf("values = %v", v)
	}
	// The entity also exists as a person.
	prows := run(t, i, "FOR EACH person WHERE ssn = 555000111 PRINT pname;")
	if len(prows) != 1 || prows[0].Key != rows[0].Key {
		t.Errorf("hierarchy records inconsistent: %v vs %v", prows, rows)
	}
}

func TestCreateUniquenessViolation(t *testing.T) {
	i := newInterface(t)
	run(t, i, "CREATE person (pname := 'A', ssn := 600000001);")
	if _, err := execText(i, "CREATE person (pname := 'B', ssn := 600000001);"); err == nil {
		t.Error("duplicate ssn accepted")
	}
}

func TestLetUpdatesValue(t *testing.T) {
	i := newInterface(t)
	run(t, i, "LET gpa OF student WHERE pname = 'Student 0001' BE 1.5;")
	rows := run(t, i, "FOR EACH student WHERE pname = 'Student 0001' PRINT gpa;")
	if len(rows) != 1 || rows[0].Values["gpa"][0].AsFloat() != 1.5 {
		t.Errorf("rows = %v", rows)
	}
}

func TestDestroyRemovesHierarchy(t *testing.T) {
	i := newInterface(t)
	run(t, i, "CREATE student (pname := 'Gone', ssn := 700000001, major := 'Art');")
	run(t, i, "DESTROY student WHERE ssn = 700000001;")
	if rows := run(t, i, "FOR EACH student WHERE ssn = 700000001 PRINT major;"); len(rows) != 0 {
		t.Error("destroyed student still present")
	}
}

func TestDestroyReferencedAborts(t *testing.T) {
	i := newInterface(t)
	// Faculty 000 advises students: advisor references must abort DESTROY.
	if _, err := execText(i, "DESTROY faculty WHERE pname = 'Faculty 000';"); err == nil {
		t.Error("referenced faculty destroyed")
	} else if !strings.Contains(err.Error(), "referenced") {
		t.Errorf("err = %v", err)
	}
}

func TestDestroyEntityDeletesSubtypeRecords(t *testing.T) {
	i := newInterface(t)
	run(t, i, "CREATE student (pname := 'Down', ssn := 700000002, major := 'Art');")
	// Destroying the person removes the student record too (hierarchy).
	run(t, i, "DESTROY person WHERE ssn = 700000002;")
	if rows := run(t, i, "FOR EACH student WHERE ssn = 700000002 PRINT major;"); len(rows) != 0 {
		t.Error("subtype record survived DESTROY of its supertype")
	}
}

func TestRowKeysAscending(t *testing.T) {
	i := newInterface(t)
	rows := run(t, i, "FOR EACH person PRINT pname;")
	for n := 1; n < len(rows); n++ {
		if rows[n-1].Key >= rows[n].Key {
			t.Fatal("rows not in key order")
		}
	}
}

func TestEnumerationLiteral(t *testing.T) {
	i := newInterface(t)
	rows := run(t, i, "FOR EACH faculty WHERE rank = professor PRINT pname, rank;")
	if len(rows) == 0 {
		t.Fatal("no professors found")
	}
	for _, r := range rows {
		if r.Values["rank"][0].AsString() != "professor" {
			t.Errorf("rank = %v", r.Values["rank"])
		}
	}
	_ = abdm.Null()
}
