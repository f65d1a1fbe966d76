package codasyl

import (
	"testing"

	"mlds/internal/abdm"
)

func mustStmt(t *testing.T, line string) Stmt {
	t.Helper()
	st, err := ParseStmt(line)
	if err != nil {
		t.Fatalf("ParseStmt(%q): %v", line, err)
	}
	return st
}

func TestParseFindAny(t *testing.T) {
	st := mustStmt(t, "FIND ANY course USING title IN course")
	f, ok := st.(*Find)
	if !ok || f.Kind != FindAny || f.Record != "course" || len(f.Items) != 1 || f.Items[0] != "title" {
		t.Fatalf("parsed %+v", st)
	}
	st = mustStmt(t, "FIND ANY course USING title, semester IN course")
	f = st.(*Find)
	if len(f.Items) != 2 || f.Items[1] != "semester" {
		t.Errorf("items = %v", f.Items)
	}
	if _, err := ParseStmt("FIND ANY course USING title IN person"); err == nil {
		t.Error("mismatched IN record accepted")
	}
}

func TestParseFindCurrent(t *testing.T) {
	f := mustStmt(t, "FIND CURRENT student WITHIN person_student").(*Find)
	if f.Kind != FindCurrent || f.Record != "student" || f.Set != "person_student" {
		t.Fatalf("parsed %+v", f)
	}
}

func TestParseFindDuplicate(t *testing.T) {
	f := mustStmt(t, "FIND DUPLICATE WITHIN advisor USING major IN student").(*Find)
	if f.Kind != FindDuplicate || f.Set != "advisor" || f.Record != "student" || f.Items[0] != "major" {
		t.Fatalf("parsed %+v", f)
	}
}

func TestParseFindPositional(t *testing.T) {
	cases := map[string]FindKind{
		"FIND FIRST person WITHIN person_student": FindFirst,
		"FIND LAST person WITHIN person_student":  FindLast,
		"FIND NEXT student WITHIN person_student": FindNext,
		"FIND PRIOR student WITHIN advisor":       FindPrior,
	}
	for line, kind := range cases {
		f := mustStmt(t, line).(*Find)
		if f.Kind != kind {
			t.Errorf("%q parsed as %v, want %v", line, f.Kind, kind)
		}
		if f.Set == "" || f.Record == "" {
			t.Errorf("%q lost record/set: %+v", line, f)
		}
	}
}

func TestParseFindOwner(t *testing.T) {
	f := mustStmt(t, "FIND OWNER WITHIN advisor").(*Find)
	if f.Kind != FindOwner || f.Set != "advisor" || f.Record != "" {
		t.Fatalf("parsed %+v", f)
	}
}

func TestParseFindWithinCurrent(t *testing.T) {
	f := mustStmt(t, "FIND student WITHIN advisor CURRENT USING major, gpa IN student").(*Find)
	if f.Kind != FindWithinCurrent || f.Record != "student" || f.Set != "advisor" || len(f.Items) != 2 {
		t.Fatalf("parsed %+v", f)
	}
}

func TestParseGetForms(t *testing.T) {
	if g := mustStmt(t, "GET").(*Get); g.Record != "" || len(g.Items) != 0 {
		t.Errorf("bare GET = %+v", g)
	}
	if g := mustStmt(t, "GET student").(*Get); g.Record != "student" || len(g.Items) != 0 {
		t.Errorf("GET record = %+v", g)
	}
	g := mustStmt(t, "GET major, gpa IN student").(*Get)
	if g.Record != "student" || len(g.Items) != 2 {
		t.Errorf("GET items = %+v", g)
	}
	if _, err := ParseStmt("GET a, b"); err == nil {
		t.Error("GET item list without IN accepted")
	}
}

func TestParseStoreConnectDisconnect(t *testing.T) {
	if s := mustStmt(t, "STORE course").(*Store); s.Record != "course" {
		t.Errorf("STORE = %+v", s)
	}
	c := mustStmt(t, "CONNECT student TO advisor, enrollments").(*Connect)
	if c.Record != "student" || len(c.Sets) != 2 {
		t.Errorf("CONNECT = %+v", c)
	}
	d := mustStmt(t, "DISCONNECT student FROM advisor").(*Disconnect)
	if d.Record != "student" || d.Sets[0] != "advisor" {
		t.Errorf("DISCONNECT = %+v", d)
	}
}

func TestParseModify(t *testing.T) {
	if m := mustStmt(t, "MODIFY course").(*Modify); m.Record != "course" || len(m.Items) != 0 {
		t.Errorf("MODIFY record = %+v", m)
	}
	m := mustStmt(t, "MODIFY title, credits IN course").(*Modify)
	if m.Record != "course" || len(m.Items) != 2 {
		t.Errorf("MODIFY items = %+v", m)
	}
}

func TestParseErase(t *testing.T) {
	if e := mustStmt(t, "ERASE course").(*Erase); e.All || e.Record != "course" {
		t.Errorf("ERASE = %+v", e)
	}
	if e := mustStmt(t, "ERASE ALL course").(*Erase); !e.All {
		t.Errorf("ERASE ALL = %+v", e)
	}
}

func TestParseMove(t *testing.T) {
	m := mustStmt(t, "MOVE 'Advanced Database' TO title IN course").(*Move)
	if m.Item != "title" || m.Record != "course" || m.Value.AsString() != "Advanced Database" {
		t.Fatalf("MOVE = %+v", m)
	}
	m = mustStmt(t, "MOVE 4 TO credits IN course").(*Move)
	if m.Value.Kind() != abdm.KindInt || m.Value.AsInt() != 4 {
		t.Errorf("MOVE int = %+v", m)
	}
	m = mustStmt(t, "MOVE 3.5 TO gpa IN student").(*Move)
	if m.Value.Kind() != abdm.KindFloat {
		t.Errorf("MOVE float = %+v", m)
	}
	// A quoted numeral stays a string.
	m = mustStmt(t, "MOVE '42' TO title IN course").(*Move)
	if m.Value.Kind() != abdm.KindString {
		t.Errorf("quoted numeral = %v", m.Value.Kind())
	}
}

func TestParseStatementErrors(t *testing.T) {
	bad := []string{
		"",
		"FROB x",
		"FIND",
		"FIND ANY",
		"FIND ANY course USING",
		"FIND ANY course USING title",
		"FIND CURRENT student",
		"FIND student WITHIN advisor USING major IN student", // missing CURRENT
		"STORE",
		"CONNECT student advisor",
		"DISCONNECT student TO advisor",
		"MODIFY a, b",
		"ERASE",
		"MOVE TO x IN y",
		"MOVE 'unterminated TO x IN y",
		"GET major, gpa IN student extra",
		// A quoted literal is a value, never a record, set or item name.
		"GET ''''",
		"GET 'a''b'",
		"STORE 'student'",
		"GET a ',' b IN r",
		"CONNECT r TO 's'",
		"FIND ANY course USING 'title' IN course",
		"MOVE 1 TO 'a' IN r",
		"MOVE 1 TO a IN 'r'",
	}
	for _, line := range bad {
		if _, err := ParseStmt(line); err == nil {
			t.Errorf("ParseStmt(%q) accepted", line)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	lines := []string{
		"FIND ANY course USING title IN course",
		"FIND CURRENT student WITHIN person_student",
		"FIND DUPLICATE WITHIN advisor USING major IN student",
		"FIND FIRST person WITHIN person_student",
		"FIND OWNER WITHIN advisor",
		"FIND student WITHIN advisor CURRENT USING major IN student",
		"GET",
		"GET student",
		"GET major, gpa IN student",
		"STORE course",
		"CONNECT student TO advisor",
		"DISCONNECT student FROM advisor, enrollments",
		"MODIFY course",
		"MODIFY title IN course",
		"ERASE course",
		"ERASE ALL course",
		"MOVE 'Advanced Database' TO title IN course",
	}
	for _, line := range lines {
		st := mustStmt(t, line)
		again := mustStmt(t, st.String())
		if st.String() != again.String() {
			t.Errorf("round trip unstable: %q -> %q -> %q", line, st, again)
		}
	}
}

func TestParseScriptWithLoop(t *testing.T) {
	src := `
-- locate CS students (thesis Chapter VI.B.4 example)
MOVE 'Computer Science' TO major IN student
FIND ANY student USING major IN student
FIND FIRST person WITHIN person_student
PERFORM UNTIL END-OF-SET
    GET student
    FIND NEXT student WITHIN person_student
END-PERFORM
`
	script, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(script) != 4 {
		t.Fatalf("top-level nodes = %d", len(script))
	}
	loop, ok := script[3].(Loop)
	if !ok || len(loop.Body) != 2 {
		t.Fatalf("loop = %+v", script[3])
	}
	if got := len(script.Statements()); got != 5 {
		t.Errorf("flattened statements = %d, want 5", got)
	}
}

func TestParseScriptErrors(t *testing.T) {
	cases := map[string]string{
		"dangling loop":    "PERFORM UNTIL END-OF-SET\nGET",
		"stray end":        "GET\nEND-PERFORM",
		"empty":            "\n-- nothing\n",
		"bad stmt in loop": "PERFORM UNTIL X\nFROB\nEND-PERFORM",
	}
	for name, src := range cases {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseNestedLoops(t *testing.T) {
	src := `
FIND FIRST person WITHIN person_student
PERFORM UNTIL END-OF-SET
    FIND FIRST course WITHIN enrollments
    PERFORM UNTIL END-OF-SET
        GET course
        FIND NEXT course WITHIN enrollments
    END-PERFORM
    FIND NEXT student WITHIN person_student
END-PERFORM
`
	script, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	outer := script[1].(Loop)
	if len(outer.Body) != 3 {
		t.Fatalf("outer body = %d", len(outer.Body))
	}
	if _, ok := outer.Body[1].(Loop); !ok {
		t.Error("nested loop lost")
	}
}

func TestParseFindAnyBare(t *testing.T) {
	f := mustStmt(t, "FIND ANY course").(*Find)
	if f.Kind != FindAny || f.Record != "course" || len(f.Items) != 0 {
		t.Fatalf("parsed %+v", f)
	}
	if f.String() != "FIND ANY course" {
		t.Errorf("String = %q", f.String())
	}
}
