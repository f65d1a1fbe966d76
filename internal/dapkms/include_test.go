package dapkms

import (
	"fmt"
	"strings"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/univgen"
)

type abdlRequest = abdl.Request

var abdlParse = abdl.Parse

func itoa(k int64) string { return fmt.Sprint(k) }

func enrollCount(t *testing.T, i *Interface, pname string) int {
	t.Helper()
	rows := run(t, i, "FOR EACH student WHERE pname = '"+pname+"' PRINT enrollments;")
	if len(rows) != 1 {
		t.Fatalf("student %q rows = %d", pname, len(rows))
	}
	return len(rows[0].Values["enrollments"])
}

func TestIncludeOneToMany(t *testing.T) {
	i := newInterface(t)
	before := enrollCount(t, i, "Student 0000")
	run(t, i, "INCLUDE course WHERE title = 'Course 005' IN enrollments OF student WHERE pname = 'Student 0000';")
	after := enrollCount(t, i, "Student 0000")
	if after != before+1 {
		t.Errorf("enrollments %d -> %d, want +1", before, after)
	}
	// Idempotent: including the same course again changes nothing.
	run(t, i, "INCLUDE course WHERE title = 'Course 005' IN enrollments OF student WHERE pname = 'Student 0000';")
	if enrollCount(t, i, "Student 0000") != after {
		t.Error("repeat INCLUDE duplicated the membership")
	}
}

func TestExcludeOneToMany(t *testing.T) {
	i := newInterface(t)
	before := enrollCount(t, i, "Student 0001")
	// Find one of the student's enrolled courses and exclude it.
	rows := run(t, i, "FOR EACH student WHERE pname = 'Student 0001' PRINT enrollments;")
	courseKey := rows[0].Values["enrollments"][0].AsInt()
	crows := run(t, i, "FOR EACH course PRINT title;")
	var title string
	for _, r := range crows {
		if r.Key == courseKey {
			title = r.Values["title"][0].AsString()
		}
	}
	if title == "" {
		t.Fatal("enrolled course not found")
	}
	run(t, i, "EXCLUDE course WHERE title = '"+title+"' FROM enrollments OF student WHERE pname = 'Student 0001';")
	if got := enrollCount(t, i, "Student 0001"); got != before-1 {
		t.Errorf("enrollments %d -> %d, want -1", before, got)
	}
}

func TestIncludeScalarMultiValued(t *testing.T) {
	i := newInterface(t)
	run(t, i, "INCLUDE 'welding' IN skills OF support_staff WHERE pname = 'Staff 000';")
	rows := run(t, i, "FOR EACH support_staff WHERE pname = 'Staff 000' PRINT skills;")
	found := false
	for _, v := range rows[0].Values["skills"] {
		if v.AsString() == "welding" {
			found = true
		}
	}
	if !found {
		t.Errorf("skills = %v", rows[0].Values["skills"])
	}
	run(t, i, "EXCLUDE 'welding' FROM skills OF support_staff WHERE pname = 'Staff 000';")
	rows = run(t, i, "FOR EACH support_staff WHERE pname = 'Staff 000' PRINT skills;")
	for _, v := range rows[0].Values["skills"] {
		if v.AsString() == "welding" {
			t.Error("welding survived EXCLUDE")
		}
	}
}

func TestIncludeManyToMany(t *testing.T) {
	i := newInterface(t)
	// Faculty 000 teaches TeachPerFaculty courses via LINK_1.
	countLinks := func() int {
		rows := run(t, i, "FOR EACH faculty WHERE pname = 'Faculty 000' PRINT pname;")
		if len(rows) != 1 {
			t.Fatal("faculty missing")
		}
		// Count link records whose teaching attr equals this faculty's key.
		res, err := i.kc.Exec(mustParse(t, "RETRIEVE ((FILE = LINK_1) AND (teaching = "+itoa(rows[0].Key)+")) (LINK_1)"))
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Records)
	}
	before := countLinks()
	run(t, i, "INCLUDE course WHERE title = 'Course 009' IN teaching OF faculty WHERE pname = 'Faculty 000';")
	if got := countLinks(); got != before+1 {
		t.Errorf("teaching links %d -> %d", before, got)
	}
	run(t, i, "EXCLUDE course WHERE title = 'Course 009' FROM teaching OF faculty WHERE pname = 'Faculty 000';")
	if got := countLinks(); got != before {
		t.Errorf("links after exclude = %d, want %d", got, before)
	}
}

func TestIncludeValidation(t *testing.T) {
	i := newInterface(t)
	cases := []string{
		// single-valued function
		"INCLUDE faculty WHERE pname = 'Faculty 000' IN advisor OF student WHERE pname = 'Student 0000';",
		// scalar literal into entity-valued function
		"INCLUDE 'x' IN enrollments OF student WHERE pname = 'Student 0000';",
		// entity target into scalar function
		"INCLUDE course WHERE title = 'Course 001' IN skills OF support_staff WHERE pname = 'Staff 000';",
		// wrong range type
		"INCLUDE department WHERE dname = 'Physics' IN enrollments OF student WHERE pname = 'Student 0000';",
		// no owners
		"INCLUDE course WHERE title = 'Course 001' IN enrollments OF student WHERE pname = 'Nobody';",
		// no targets
		"INCLUDE course WHERE title = 'No Course' IN enrollments OF student WHERE pname = 'Student 0000';",
	}
	for _, src := range cases {
		if _, err := execText(i, src); err == nil {
			t.Errorf("accepted: %s", src)
		}
	}
	if _, err := execText(i, "EXCLUDE course WHERE title = 'Advanced Database' FROM enrollments OF student WHERE pname = 'Student 0001';"); err == nil {
		// Student 0001 may or may not take course 0; only assert the
		// not-included error path when it truly is not included.
		_ = err
	}
}

func TestUnivgenStaffNamePrefix(t *testing.T) {
	// Guard: the tests above rely on the generator's staff naming.
	db, err := univgen.Generate(univgen.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := db.Instance.Records()
	found := false
	for _, r := range recs {
		if r.File() != "person" {
			continue
		}
		if v, _ := r.Get("pname"); strings.HasPrefix(v.AsString(), "Staff ") {
			found = true
		}
	}
	if !found {
		t.Fatal("generator no longer produces Staff names; update the Include tests")
	}
}

// mustParse parses one ABDL request.
func mustParse(t *testing.T, src string) *abdlRequest {
	t.Helper()
	req, err := abdlParse(src)
	if err != nil {
		t.Fatal(err)
	}
	return req
}
