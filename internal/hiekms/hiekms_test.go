package hiekms

import (
	"context"
	"strings"
	"testing"

	"mlds/internal/dli"
	"mlds/internal/hiemodel"
	"mlds/internal/kc"
	"mlds/internal/mbds"
)

// execText parses one statement and executes it, as a session does.
func execText(i *Interface, src string) (*Outcome, error) {
	st, err := dli.Parse(src)
	if err != nil {
		return nil, err
	}
	return i.ExecCtx(context.Background(), st)
}

// The classic IMS-style school database: dept → course → enroll, with a
// second child type (office) under dept to exercise sibling-type ordering.
const schoolDBD = `
DBD NAME IS school

SEGMENT NAME IS dept
    FIELD dname CHAR 20
    FIELD floor INT

SEGMENT NAME IS course PARENT IS dept
    FIELD title CHAR 30
    FIELD credits INT

SEGMENT NAME IS enroll PARENT IS course
    FIELD sname CHAR 20
    FIELD grade FLOAT

SEGMENT NAME IS office PARENT IS dept
    FIELD room INT
`

func newIf(t *testing.T) *Interface {
	t.Helper()
	schema, err := hiemodel.Parse(schoolDBD)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := DeriveAB(schema)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := mbds.New(dir, mbds.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return New(schema, kc.New(sys))
}

func exec(t *testing.T, i *Interface, call string) *Outcome {
	t.Helper()
	out, err := execText(i, call)
	if err != nil {
		t.Fatalf("%s: %v", call, err)
	}
	return out
}

func ok(t *testing.T, i *Interface, call string) *Outcome {
	t.Helper()
	out := exec(t, i, call)
	if out.Status != StatusOK {
		t.Fatalf("%s: status %q", call, out.Status)
	}
	return out
}

// loadSchool builds:
//
//	dept CS (floor 2)
//	  course DB    (credits 4) → enroll Ann(3.7), Bob(3.1)
//	  course OS    (credits 3) → enroll Cey(3.9)
//	  office 210
//	dept EE (floor 3)
//	  course Radio (credits 2)
func loadSchool(t *testing.T, i *Interface) {
	t.Helper()
	ok(t, i, "ISRT dept (dname = 'CS', floor = 2)")
	ok(t, i, "ISRT course (title = 'DB', credits = 4)")
	ok(t, i, "ISRT enroll (sname = 'Ann', grade = 3.7)")
	// Position is the Ann enroll; inserting another enroll resolves the
	// course parent by walking up.
	ok(t, i, "ISRT enroll (sname = 'Bob', grade = 3.1)")
	// A new course under CS: the parent (dept) is found by ascending.
	ok(t, i, "ISRT course (title = 'OS', credits = 3)")
	ok(t, i, "ISRT enroll (sname = 'Cey', grade = 3.9)")
	// The office under CS: reposition on the dept first.
	ok(t, i, "GU dept (dname = 'CS')")
	ok(t, i, "ISRT office (room = 210)")
	// Second dept with one course.
	ok(t, i, "ISRT dept (dname = 'EE', floor = 3)")
	ok(t, i, "ISRT course (title = 'Radio', credits = 2)")
}

func TestGUQualifiedPath(t *testing.T) {
	i := newIf(t)
	loadSchool(t, i)
	out := ok(t, i, "GU dept (dname = 'CS') course (title = 'DB') enroll (sname = 'Bob')")
	if out.Segment != "enroll" || out.Values["sname"].AsString() != "Bob" {
		t.Fatalf("out = %+v", out)
	}
	// Unsatisfied SSA → GE.
	ge := exec(t, i, "GU dept (dname = 'CS') course (title = 'Radio')")
	if ge.Status != StatusGE {
		t.Errorf("status = %q, want GE", ge.Status)
	}
	// Non-child path is an error.
	if _, err := execText(i, "GU dept (dname = 'CS') enroll (sname = 'Ann')"); err == nil {
		t.Error("skipped-level SSA accepted")
	}
}

func TestGNHierarchicOrder(t *testing.T) {
	i := newIf(t)
	loadSchool(t, i)
	// Reset position by starting a fresh session over the same kernel.
	var order []string
	ok(t, i, "GU dept (dname = 'CS')")
	// Walk everything from the first root.
	i2 := New(i.schema, i.kc)
	for {
		out, err := execText(i2, "GN")
		if err != nil {
			t.Fatal(err)
		}
		if out.Status == StatusGB {
			break
		}
		order = append(order, out.Segment)
	}
	want := "dept course enroll enroll course enroll office dept course"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("hierarchic order:\n got %s\nwant %s", got, want)
	}
}

func TestGNWithSegmentFilter(t *testing.T) {
	i := newIf(t)
	loadSchool(t, i)
	i2 := New(i.schema, i.kc)
	var titles []string
	for {
		out, err := execText(i2, "GN course")
		if err != nil {
			t.Fatal(err)
		}
		if out.Status == StatusGB {
			break
		}
		titles = append(titles, out.Values["title"].AsString())
	}
	if strings.Join(titles, " ") != "DB OS Radio" {
		t.Fatalf("courses = %v", titles)
	}
}

func TestGNPWithinParent(t *testing.T) {
	i := newIf(t)
	loadSchool(t, i)
	ok(t, i, "GU dept (dname = 'CS') course (title = 'DB')")
	var names []string
	for {
		out, err := execText(i, "GNP enroll")
		if err != nil {
			t.Fatal(err)
		}
		if out.Status != StatusOK {
			if out.Status != StatusGE {
				t.Fatalf("status = %q", out.Status)
			}
			break
		}
		names = append(names, out.Values["sname"].AsString())
	}
	if strings.Join(names, " ") != "Ann Bob" {
		t.Fatalf("enrollments under DB = %v", names)
	}
	// GNP must not leak into the OS course or the EE dept.
	ok(t, i, "GU dept (dname = 'EE')")
	out := exec(t, i, "GNP enroll")
	if out.Status != StatusGE {
		t.Errorf("EE has no enrollments; status = %q", out.Status)
	}
}

func TestREPL(t *testing.T) {
	i := newIf(t)
	loadSchool(t, i)
	ok(t, i, "GU dept (dname = 'CS') course (title = 'OS')")
	out := ok(t, i, "REPL (credits = 5)")
	if out.Values["credits"].AsInt() != 5 {
		t.Fatalf("credits = %v", out.Values)
	}
	again := ok(t, i, "GU dept (dname = 'CS') course (title = 'OS')")
	if again.Values["credits"].AsInt() != 5 {
		t.Error("REPL not persisted")
	}
	if _, err := execText(i, "REPL (nosuch = 1)"); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestDLETDeletesSubtree(t *testing.T) {
	i := newIf(t)
	loadSchool(t, i)
	ok(t, i, "GU dept (dname = 'CS') course (title = 'DB')")
	out := exec(t, i, "DLET")
	if out.Status != StatusOK {
		t.Fatalf("DLET status = %q", out.Status)
	}
	// The course and its enrollments are gone.
	ge := exec(t, i, "GU dept (dname = 'CS') course (title = 'DB')")
	if ge.Status != StatusGE {
		t.Error("deleted course still findable")
	}
	i2 := New(i.schema, i.kc)
	count := 0
	for {
		o, err := execText(i2, "GN enroll")
		if err != nil {
			t.Fatal(err)
		}
		if o.Status == StatusGB {
			break
		}
		count++
	}
	if count != 1 { // only Cey (under OS) remains
		t.Errorf("enrollments left = %d, want 1", count)
	}
	// Position is invalidated.
	if _, err := execText(i, "REPL (credits = 1)"); err == nil {
		t.Error("REPL after DLET accepted")
	}
}

func TestISRTRequiresParent(t *testing.T) {
	i := newIf(t)
	if _, err := execText(i, "ISRT course (title = 'Orphan')"); err == nil {
		t.Error("dependent ISRT without position accepted")
	}
	if _, err := execText(i, "ISRT nosuch (a = 1)"); err == nil {
		t.Error("unknown segment accepted")
	}
	ok(t, i, "ISRT dept (dname = 'X')")
	if _, err := execText(i, "ISRT course (nosuch = 1)"); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestGNPRequiresAnchor(t *testing.T) {
	i := newIf(t)
	if _, err := execText(i, "GNP"); err == nil {
		t.Error("GNP without anchor accepted")
	}
}

func TestDeriveABTemplates(t *testing.T) {
	schema, _ := hiemodel.Parse(schoolDBD)
	dir, err := DeriveAB(schema)
	if err != nil {
		t.Fatal(err)
	}
	tmpl, ok := dir.FileTemplate("enroll")
	if !ok || len(tmpl) != 4 { // enroll key, course parent, sname, grade
		t.Fatalf("enroll template = %v", tmpl)
	}
	if tmpl[0] != "enroll" || tmpl[1] != "course" {
		t.Errorf("template = %v", tmpl)
	}
}
