package kms

import (
	"context"
	"errors"
	"strings"
	"testing"

	"mlds/internal/abdm"
	"mlds/internal/codasyl"
	"mlds/internal/kc"
	"mlds/internal/univgen"
)

// newSession loads a small University database into a fresh kernel and
// returns a functional-target translator over it.
func newSession(t *testing.T) *Translator {
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
	return NewFunctional(db.Mapping, db.AB, ctrl)
}

func exec(t *testing.T, tr *Translator, line string) *Outcome {
	t.Helper()
	st, err := codasyl.ParseStmt(line)
	if err != nil {
		t.Fatalf("parse %q: %v", line, err)
	}
	out, err := tr.ExecCtx(context.Background(), st)
	if err != nil {
		t.Fatalf("exec %q: %v", line, err)
	}
	return out
}

func execErr(t *testing.T, tr *Translator, line string) error {
	t.Helper()
	st, err := codasyl.ParseStmt(line)
	if err != nil {
		t.Fatalf("parse %q: %v", line, err)
	}
	_, err = tr.ExecCtx(context.Background(), st)
	if err == nil {
		t.Fatalf("exec %q: expected error", line)
	}
	return err
}

func hasRequest(out *Outcome, substr string) bool {
	for _, r := range out.Requests {
		if strings.Contains(r, substr) {
			return true
		}
	}
	return false
}

// --- FIND ANY (VI.B.1) ----------------------------------------------------

func TestFindAnyTranslation(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Advanced Database' TO title IN course")
	out := exec(t, tr, "FIND ANY course USING title IN course")
	if !out.Found || out.Record != "course" {
		t.Fatalf("outcome = %+v", out)
	}
	// The translation is a single RETRIEVE whose first predicate is FILE.
	if len(out.Requests) != 1 {
		t.Fatalf("requests = %v", out.Requests)
	}
	want := "RETRIEVE ((FILE = 'course') AND (title = 'Advanced Database')) (all attributes)"
	if out.Requests[0] != want {
		t.Errorf("request = %q, want %q", out.Requests[0], want)
	}
	if !tr.CIT().RunUnit.Valid || tr.CIT().RunUnit.Record != "course" {
		t.Error("run-unit current not set")
	}
}

func TestFindAnyMultipleItems(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Advanced Database' TO title IN course")
	exec(t, tr, "MOVE 'Fall' TO semester IN course")
	out := exec(t, tr, "FIND ANY course USING title, semester IN course")
	if !out.Found {
		t.Fatal("not found")
	}
	if !hasRequest(out, "(semester = 'Fall')") {
		t.Errorf("requests = %v", out.Requests)
	}
}

func TestFindAnyNotFoundSetsEndOfSet(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'No Such Course' TO title IN course")
	out := exec(t, tr, "FIND ANY course USING title IN course")
	if out.Found || !out.EndOfSet {
		t.Errorf("outcome = %+v", out)
	}
}

func TestFindAnyRequiresUWA(t *testing.T) {
	tr := newSession(t)
	err := execErr(t, tr, "FIND ANY course USING title IN course")
	if !strings.Contains(err.Error(), "MOVE") {
		t.Errorf("err = %v", err)
	}
}

// --- GET (VI.C) -------------------------------------------------------------

func TestGetForms(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Advanced Database' TO title IN course")
	exec(t, tr, "FIND ANY course USING title IN course")
	out := exec(t, tr, "GET")
	if v, ok := out.Values["title"]; !ok || v.AsString() != "Advanced Database" {
		t.Errorf("GET values = %v", out.Values)
	}
	out = exec(t, tr, "GET course")
	if _, ok := out.Values["credits"]; !ok {
		t.Errorf("GET course values = %v", out.Values)
	}
	out = exec(t, tr, "GET title, credits IN course")
	if len(out.Values) != 2 {
		t.Errorf("GET items values = %v", out.Values)
	}
	if v, _ := tr.UWA().Get("course", "title"); v.AsString() != "Advanced Database" {
		t.Error("GET did not load the UWA")
	}
}

func TestGetWrongRecordType(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Advanced Database' TO title IN course")
	exec(t, tr, "FIND ANY course USING title IN course")
	err := execErr(t, tr, "GET student")
	if !strings.Contains(err.Error(), "current of run-unit") {
		t.Errorf("err = %v", err)
	}
}

func TestGetWithoutCurrent(t *testing.T) {
	tr := newSession(t)
	err := execErr(t, tr, "GET")
	if !errors.Is(err, ErrNoCurrentRunUnit) {
		t.Errorf("err = %v", err)
	}
}

// --- FIND FIRST/NEXT/LAST/PRIOR (VI.B.4) ------------------------------------

func TestFindPositionalOverSystemSet(t *testing.T) {
	tr := newSession(t)
	// The SYSTEM-owned set of course holds every course occurrence.
	out := exec(t, tr, "FIND FIRST course WITHIN system_course")
	if !out.Found {
		t.Fatal("FIND FIRST found nothing")
	}
	count := 1
	for {
		out = exec(t, tr, "FIND NEXT course WITHIN system_course")
		if out.EndOfSet {
			break
		}
		count++
	}
	if count != univgen.SmallConfig().Courses {
		t.Errorf("iterated %d courses, want %d", count, univgen.SmallConfig().Courses)
	}
}

func TestFindFirstLastPrior(t *testing.T) {
	tr := newSession(t)
	first := exec(t, tr, "FIND FIRST course WITHIN system_course")
	last := exec(t, tr, "FIND LAST course WITHIN system_course")
	if first.Key == last.Key {
		t.Error("first and last should differ")
	}
	prior := exec(t, tr, "FIND PRIOR course WITHIN system_course")
	if !prior.Found || prior.Key == last.Key {
		t.Errorf("prior = %+v", prior)
	}
}

func TestFindNextWithoutFirst(t *testing.T) {
	tr := newSession(t)
	err := execErr(t, tr, "FIND NEXT course WITHIN system_course")
	if !errors.Is(err, ErrNoBuffer) {
		t.Errorf("err = %v", err)
	}
}

func TestFindPositionalNotMember(t *testing.T) {
	tr := newSession(t)
	err := execErr(t, tr, "FIND FIRST course WITHIN advisor")
	if !errors.Is(err, ErrNotMember) {
		t.Errorf("err = %v", err)
	}
}

// TestFindMembersOfOwnerAttrSet iterates a one-to-many multi-valued function
// set (enrollments), whose membership attribute lives in the owner file —
// the two-ARR translation path.
func TestFindMembersOfOwnerAttrSet(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Student 0000' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	// The person current establishes nothing for enrollments (owned by
	// student); find the student record via the ISA set.
	out := exec(t, tr, "FIND FIRST student WITHIN person_student")
	if !out.Found {
		t.Fatal("student not found via ISA set")
	}
	out = exec(t, tr, "FIND FIRST course WITHIN enrollments")
	if !out.Found {
		t.Fatal("no enrolled course found")
	}
	// The owner-attr path issues two retrieves: owner copies, then members.
	if len(out.Requests) != 2 {
		t.Errorf("requests = %v", out.Requests)
	}
	count := 1
	for {
		o := exec(t, tr, "FIND NEXT course WITHIN enrollments")
		if o.EndOfSet {
			break
		}
		count++
	}
	if count != univgen.SmallConfig().EnrollPerStudent {
		t.Errorf("enrolled courses = %d, want %d", count, univgen.SmallConfig().EnrollPerStudent)
	}
}

// TestFindMembersOfISASet exercises the shared-key translation: members of
// person_student are student records sharing the person's key.
func TestFindMembersOfISASet(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Faculty 000' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	// A faculty person has no student record: end of set.
	out := exec(t, tr, "FIND FIRST student WITHIN person_student")
	if !out.EndOfSet {
		t.Errorf("faculty person yielded a student: %+v", out)
	}
	out = exec(t, tr, "FIND FIRST employee WITHIN person_employee")
	if !out.Found {
		t.Error("faculty person has no employee record")
	}
	if out.Key != tr.CIT().RunUnit.Key {
		t.Error("run-unit not updated")
	}
}

// TestFindMembersOfMemberAttrSet iterates a single-valued function set
// (advisor): students advised by the current faculty.
func TestFindMembersOfMemberAttrSet(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Faculty 000' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST employee WITHIN person_employee")
	exec(t, tr, "FIND FIRST faculty WITHIN employee_faculty")
	// Now faculty is current; it owns the advisor set.
	out := exec(t, tr, "FIND FIRST student WITHIN advisor")
	if !out.Found {
		t.Fatal("no advisee found")
	}
	// 18 students round-robin over 6 faculty = 3 advisees each.
	count := 1
	for {
		o := exec(t, tr, "FIND NEXT student WITHIN advisor")
		if o.EndOfSet {
			break
		}
		count++
	}
	if count != 3 {
		t.Errorf("advisees = %d, want 3", count)
	}
}

// TestFindMembersOfLinkSet iterates a many-to-many set: LINK_1 records of a
// faculty's teaching set.
func TestFindMembersOfLinkSet(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Faculty 001' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST employee WITHIN person_employee")
	exec(t, tr, "FIND FIRST faculty WITHIN employee_faculty")
	out := exec(t, tr, "FIND FIRST LINK_1 WITHIN teaching")
	if !out.Found {
		t.Fatal("no teaching link found")
	}
	// The link's taught_by attribute leads to the course.
	owner := exec(t, tr, "FIND OWNER WITHIN taught_by")
	if !owner.Found || owner.Record != "course" {
		t.Fatalf("owner via taught_by = %+v", owner)
	}
	count := 1
	exec(t, tr, "FIND FIRST LINK_1 WITHIN teaching") // reposition after FIND OWNER
	for {
		o := exec(t, tr, "FIND NEXT LINK_1 WITHIN teaching")
		if o.EndOfSet {
			break
		}
		count++
	}
	if count != univgen.SmallConfig().TeachPerFaculty {
		t.Errorf("teaching links = %d, want %d", count, univgen.SmallConfig().TeachPerFaculty)
	}
}

// --- FIND OWNER (VI.B.5) ------------------------------------------------------

func TestFindOwner(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Student 0001' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST student WITHIN person_student")
	out := exec(t, tr, "FIND OWNER WITHIN advisor")
	if !out.Found || out.Record != "faculty" {
		t.Fatalf("owner = %+v", out)
	}
	// The translation is a single RETRIEVE by the owner's key.
	if len(out.Requests) != 1 || !strings.Contains(out.Requests[0], "(FILE = 'faculty')") {
		t.Errorf("requests = %v", out.Requests)
	}
}

func TestFindOwnerOfSystemSet(t *testing.T) {
	tr := newSession(t)
	err := execErr(t, tr, "FIND OWNER WITHIN system_course")
	if !strings.Contains(err.Error(), "SYSTEM") {
		t.Errorf("err = %v", err)
	}
}

// --- FIND CURRENT (VI.B.2) ----------------------------------------------------

func TestFindCurrent(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Student 0002' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST student WITHIN person_student")
	studentKey := tr.CIT().RunUnit.Key
	// Change the run-unit elsewhere.
	exec(t, tr, "MOVE 'Advanced Database' TO title IN course")
	exec(t, tr, "FIND ANY course USING title IN course")
	// FIND CURRENT restores the set's current member as run-unit, with no
	// ABDL generated.
	out := exec(t, tr, "FIND CURRENT student WITHIN person_student")
	if !out.Found || out.Key != studentKey {
		t.Fatalf("outcome = %+v, want key %d", out, studentKey)
	}
	if len(out.Requests) != 0 {
		t.Errorf("FIND CURRENT issued ABDL: %v", out.Requests)
	}
}

// --- FIND DUPLICATE (VI.B.3) ----------------------------------------------------

func TestFindDuplicate(t *testing.T) {
	tr := newSession(t)
	// Iterate courses; semester cycles over 4 values, 12 courses → 3 each.
	exec(t, tr, "FIND FIRST course WITHIN system_course")
	count := 1
	for {
		st, _ := codasyl.ParseStmt("FIND DUPLICATE WITHIN system_course USING semester IN course")
		out, err := tr.ExecCtx(context.Background(), st)
		if err != nil {
			t.Fatal(err)
		}
		if out.EndOfSet {
			break
		}
		count++
	}
	if count != 3 {
		t.Errorf("same-semester duplicates = %d, want 3", count)
	}
}

// --- FIND WITHIN CURRENT (VI.B.6) ---------------------------------------------

func TestFindWithinCurrent(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Faculty 000' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST employee WITHIN person_employee")
	exec(t, tr, "FIND FIRST faculty WITHIN employee_faculty")
	// Advisees of this faculty with a specific major.
	exec(t, tr, "MOVE 'Computer Science' TO major IN student")
	out := exec(t, tr, "FIND student WITHIN advisor CURRENT USING major IN student")
	if !out.Found {
		t.Fatal("no CS advisee found")
	}
	got := exec(t, tr, "GET major IN student")
	if got.Values["major"].AsString() != "Computer Science" {
		t.Errorf("major = %v", got.Values["major"])
	}
}

// --- PERFORM loop script (the thesis's Chapter VI example) --------------------

func TestScriptCSMajors(t *testing.T) {
	tr := newSession(t)
	// system_student does not exist (student is a subtype): the loop body's
	// FIND NEXT takes the unknown-set path.
	exec(t, tr, "MOVE 'Computer Science' TO major IN student")
	exec(t, tr, "FIND ANY student USING major IN student")
	exec(t, tr, "GET student")
	execErr(t, tr, "FIND NEXT student WITHIN system_student")

	// The working formulation iterates the person system set's students.
	script, err := codasyl.ParseScript(`
MOVE 'Computer Science' TO major IN student
FIND ANY student USING major IN student
PERFORM UNTIL END-OF-SET
    GET student
    FIND DUPLICATE WITHIN system_person USING major IN student
END-PERFORM
`)
	if err != nil {
		t.Fatal(err)
	}
	_ = script // statement-level variant below is the supported idiom

	// Supported idiom: FIND ANY buffers all matches; re-FIND with DUPLICATE
	// over the run-unit buffer is modelled by repeated FIND ANY + counting
	// via set iteration instead. Count CS students by iterating the student
	// file through the person_student hierarchy.
	count := 0
	exec(t, tr, "FIND FIRST person WITHIN system_person")
	for {
		stu, _ := codasyl.ParseStmt("FIND FIRST student WITHIN person_student")
		out, err := tr.ExecCtx(context.Background(), stu)
		if err != nil {
			t.Fatal(err)
		}
		if out.Found {
			g := exec(t, tr, "GET major IN student")
			if g.Values["major"].AsString() == "Computer Science" {
				count++
			}
		}
		nxt, _ := codasyl.ParseStmt("FIND NEXT person WITHIN system_person")
		out, err = tr.ExecCtx(context.Background(), nxt)
		if err != nil {
			t.Fatal(err)
		}
		if out.EndOfSet {
			break
		}
	}
	if count != 6 { // 18 students, majors cycle over 3
		t.Errorf("CS students = %d, want 6", count)
	}
}

// --- STORE (VI.G) ---------------------------------------------------------------

func TestStoreEntityType(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'New Person' TO pname IN person")
	exec(t, tr, "MOVE 999999999 TO ssn IN person")
	out := exec(t, tr, "STORE person")
	if !out.Found || out.Key == 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if !hasRequest(out, "INSERT (<FILE, 'person'>") {
		t.Errorf("requests = %v", out.Requests)
	}
	// The new record is the current of the run-unit and findable.
	got := exec(t, tr, "GET pname IN person")
	if got.Values["pname"].AsString() != "New Person" {
		t.Errorf("GET after STORE = %v", got.Values)
	}
}

func TestStoreSubtypeInheritsKey(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'New Person' TO pname IN person")
	exec(t, tr, "MOVE 999999998 TO ssn IN person")
	personOut := exec(t, tr, "STORE person")
	exec(t, tr, "MOVE 'Mathematics' TO major IN student")
	exec(t, tr, "MOVE 3.9 TO gpa IN student")
	out := exec(t, tr, "STORE student")
	if out.Key != personOut.Key {
		t.Errorf("student key %d != person key %d (ISA value inheritance)", out.Key, personOut.Key)
	}
}

func TestStoreSubtypeWithoutOwner(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Lost' TO major IN student")
	err := execErr(t, tr, "STORE student")
	if !errors.Is(err, ErrNoSetOccurrence) {
		t.Errorf("err = %v", err)
	}
}

func TestStoreDuplicateRejected(t *testing.T) {
	tr := newSession(t)
	// course uniqueness: title + semester.
	exec(t, tr, "MOVE 'Advanced Database' TO title IN course")
	exec(t, tr, "MOVE 'Fall' TO semester IN course")
	exec(t, tr, "MOVE 3 TO credits IN course")
	err := execErr(t, tr, "STORE course")
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("err = %v", err)
	}
	// Different semester: allowed.
	exec(t, tr, "MOVE 'Winter2' TO semester IN course")
	out := exec(t, tr, "STORE course")
	if !out.Found {
		t.Error("non-duplicate STORE failed")
	}
}

func TestStoreOverlapConstraint(t *testing.T) {
	tr := newSession(t)
	// Make an existing faculty's employee record current, then try to store
	// a support_staff record for the same entity: faculty/support_staff
	// overlap is NOT declared.
	exec(t, tr, "MOVE 'Faculty 000' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST employee WITHIN person_employee")
	err := execErr(t, tr, "STORE support_staff")
	if !errors.Is(err, ErrOverlap) {
		t.Errorf("err = %v", err)
	}
	// student/faculty overlap IS declared: storing a student record for the
	// same person is legal.
	exec(t, tr, "MOVE 'Faculty 000' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "MOVE 'Physics' TO major IN student")
	out := exec(t, tr, "STORE student")
	if !out.Found {
		t.Error("declared overlap rejected")
	}
}

// --- CONNECT (VI.D) -----------------------------------------------------------

func TestConnectMemberSide(t *testing.T) {
	tr := newSession(t)
	// Current owner: a faculty (advisor set).
	exec(t, tr, "MOVE 'Faculty 002' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST employee WITHIN person_employee")
	exec(t, tr, "FIND FIRST faculty WITHIN employee_faculty")
	advisorKey := tr.CIT().RunUnit.Key
	// New student without an advisor.
	exec(t, tr, "MOVE 'Connect Me' TO pname IN person")
	exec(t, tr, "MOVE 999999997 TO ssn IN person")
	exec(t, tr, "STORE person")
	exec(t, tr, "MOVE 'Physics' TO major IN student")
	exec(t, tr, "STORE student")
	out := exec(t, tr, "CONNECT student TO advisor")
	if !hasRequest(out, "UPDATE") || !hasRequest(out, "(advisor = "+itoa(advisorKey)+")") {
		t.Errorf("requests = %v", out.Requests)
	}
	owner := exec(t, tr, "FIND OWNER WITHIN advisor")
	if owner.Key != advisorKey {
		t.Errorf("owner after connect = %d, want %d", owner.Key, advisorKey)
	}
}

func TestConnectOwnerSideInsertsCopy(t *testing.T) {
	tr := newSession(t)
	// New course.
	exec(t, tr, "MOVE 'Fresh Course' TO title IN course")
	exec(t, tr, "MOVE 'Fall' TO semester IN course")
	exec(t, tr, "MOVE 4 TO credits IN course")
	exec(t, tr, "STORE course")
	// Existing student with a full enrollments set (no nulls).
	exec(t, tr, "MOVE 'Student 0003' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST student WITHIN person_student")
	// Run-unit must be the course (the member being connected).
	exec(t, tr, "MOVE 'Fresh Course' TO title IN course")
	out := exec(t, tr, "FIND ANY course USING title IN course")
	courseKey := out.Key
	cOut := exec(t, tr, "CONNECT course TO enrollments")
	if !hasRequest(cOut, "INSERT") {
		t.Errorf("owner-side connect with full set should INSERT a copy: %v", cOut.Requests)
	}
	// Enrollment count grew by one.
	count := 0
	exec(t, tr, "FIND FIRST course WITHIN enrollments")
	sawNew := false
	for {
		cur := tr.CIT().RunUnit
		if cur.Valid && cur.Key == courseKey {
			sawNew = true
		}
		o := exec(t, tr, "FIND NEXT course WITHIN enrollments")
		count++
		if o.EndOfSet {
			break
		}
	}
	if count != univgen.SmallConfig().EnrollPerStudent+1 {
		t.Errorf("enrollments after connect = %d", count)
	}
	if !sawNew {
		t.Error("new course not among enrollments")
	}
}

func TestConnectOwnerSideFillsNull(t *testing.T) {
	tr := newSession(t)
	// New student (enrollments NULL) and an existing course.
	exec(t, tr, "MOVE 'Null Student' TO pname IN person")
	exec(t, tr, "MOVE 999999996 TO ssn IN person")
	exec(t, tr, "STORE person")
	exec(t, tr, "MOVE 'Mathematics' TO major IN student")
	exec(t, tr, "STORE student")
	exec(t, tr, "MOVE 'Advanced Database' TO title IN course")
	exec(t, tr, "FIND ANY course USING title IN course")
	out := exec(t, tr, "CONNECT course TO enrollments")
	// Null occurrence present: UPDATE, not INSERT.
	if hasRequest(out, "INSERT") {
		t.Errorf("expected in-place UPDATE of the null occurrence: %v", out.Requests)
	}
	if !hasRequest(out, "(enrollments = NULL)") {
		t.Errorf("expected NULL-qualified update: %v", out.Requests)
	}
}

func TestConnectAutomaticSetRejected(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Student 0000' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST student WITHIN person_student")
	err := execErr(t, tr, "CONNECT student TO person_student")
	if !errors.Is(err, ErrAutomaticSet) {
		t.Errorf("err = %v", err)
	}
}

// --- DISCONNECT (VI.E) ----------------------------------------------------------

func TestDisconnectMemberSide(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Student 0004' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST student WITHIN person_student")
	out := exec(t, tr, "DISCONNECT student FROM advisor")
	if !hasRequest(out, "(advisor = NULL)") {
		t.Errorf("requests = %v", out.Requests)
	}
	// Disconnecting again is an error.
	err := execErr(t, tr, "DISCONNECT student FROM advisor")
	if !errors.Is(err, ErrNotConnected) {
		t.Errorf("err = %v", err)
	}
}

func TestDisconnectOwnerSideMultiple(t *testing.T) {
	tr := newSession(t)
	// Student with several enrollments: disconnecting one course deletes the
	// matching record copies.
	exec(t, tr, "MOVE 'Student 0005' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST student WITHIN person_student")
	exec(t, tr, "FIND FIRST course WITHIN enrollments")
	out := exec(t, tr, "DISCONNECT course FROM enrollments")
	if !hasRequest(out, "DELETE") {
		t.Errorf("multi-member disconnect should DELETE copies: %v", out.Requests)
	}
	count := 0
	o := exec(t, tr, "FIND FIRST course WITHIN enrollments")
	if o.Found {
		count = 1
		for {
			o = exec(t, tr, "FIND NEXT course WITHIN enrollments")
			if o.EndOfSet {
				break
			}
			count++
		}
	}
	if count != univgen.SmallConfig().EnrollPerStudent-1 {
		t.Errorf("enrollments after disconnect = %d", count)
	}
}

// --- MODIFY (VI.F) --------------------------------------------------------------

func TestModifyItems(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Advanced Database' TO title IN course")
	exec(t, tr, "FIND ANY course USING title IN course")
	exec(t, tr, "MOVE 5 TO credits IN course")
	out := exec(t, tr, "MODIFY credits IN course")
	if len(out.Requests) != 1 || !strings.Contains(out.Requests[0], "(credits = 5)") {
		t.Errorf("requests = %v", out.Requests)
	}
	got := exec(t, tr, "GET credits IN course")
	if got.Values["credits"].AsInt() != 5 {
		t.Errorf("credits after modify = %v", got.Values)
	}
}

func TestModifyWholeRecordOneUpdatePerField(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Advanced Database' TO title IN course")
	exec(t, tr, "FIND ANY course USING title IN course")
	exec(t, tr, "MOVE 'Renamed Course' TO title IN course")
	exec(t, tr, "MOVE 2 TO credits IN course")
	out := exec(t, tr, "MODIFY course")
	// The UPDATE is repeated for each field to be modified.
	updates := 0
	for _, r := range out.Requests {
		if strings.HasPrefix(r, "UPDATE") {
			updates++
		}
	}
	if updates < 2 {
		t.Errorf("whole-record modify issued %d updates: %v", updates, out.Requests)
	}
}

func TestModifyRequiresCurrent(t *testing.T) {
	tr := newSession(t)
	err := execErr(t, tr, "MODIFY credits IN course")
	if !errors.Is(err, ErrNoCurrentRunUnit) {
		t.Errorf("err = %v", err)
	}
}

// --- ERASE (VI.H) ---------------------------------------------------------------

func TestEraseUnreferencedRecord(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Doomed Course' TO title IN course")
	exec(t, tr, "MOVE 'Spring' TO semester IN course")
	exec(t, tr, "MOVE 1 TO credits IN course")
	exec(t, tr, "STORE course")
	out := exec(t, tr, "ERASE course")
	if !hasRequest(out, "DELETE") {
		t.Errorf("requests = %v", out.Requests)
	}
	if tr.CIT().RunUnit.Valid {
		t.Error("run-unit current survived ERASE")
	}
	exec(t, tr, "MOVE 'Doomed Course' TO title IN course")
	gone := exec(t, tr, "FIND ANY course USING title IN course")
	if !gone.EndOfSet {
		t.Error("erased course still findable")
	}
}

func TestEraseReferencedCourseAborts(t *testing.T) {
	tr := newSession(t)
	// Course 0 is enrolled in by students: the Daplex constraint aborts.
	exec(t, tr, "MOVE 'Advanced Database' TO title IN course")
	exec(t, tr, "FIND ANY course USING title IN course")
	err := execErr(t, tr, "ERASE course")
	if !errors.Is(err, ErrEraseReferenced) && !errors.Is(err, ErrEraseOwner) {
		t.Errorf("err = %v", err)
	}
}

func TestEraseOwnerWithMembersAborts(t *testing.T) {
	tr := newSession(t)
	// A faculty with advisees owns a non-empty advisor occurrence.
	exec(t, tr, "MOVE 'Faculty 000' TO pname IN person")
	exec(t, tr, "FIND ANY person USING pname IN person")
	exec(t, tr, "FIND FIRST employee WITHIN person_employee")
	exec(t, tr, "FIND FIRST faculty WITHIN employee_faculty")
	err := execErr(t, tr, "ERASE faculty")
	if !errors.Is(err, ErrEraseOwner) {
		t.Errorf("err = %v", err)
	}
}

func TestEraseAllNotTranslated(t *testing.T) {
	tr := newSession(t)
	exec(t, tr, "MOVE 'Advanced Database' TO title IN course")
	exec(t, tr, "FIND ANY course USING title IN course")
	err := execErr(t, tr, "ERASE ALL course")
	if !errors.Is(err, ErrEraseAll) {
		t.Errorf("err = %v", err)
	}
}

// --- MOVE validation ---------------------------------------------------------

func TestMoveValidation(t *testing.T) {
	tr := newSession(t)
	if err := execErr(t, tr, "MOVE 'x' TO nosuch IN course"); !strings.Contains(err.Error(), "unknown item") {
		t.Errorf("err = %v", err)
	}
	if err := execErr(t, tr, "MOVE 'x' TO title IN nosuchrec"); !strings.Contains(err.Error(), "unknown record") {
		t.Errorf("err = %v", err)
	}
	// Kind coercion: integer literal into a float attribute.
	exec(t, tr, "MOVE 3 TO gpa IN student")
	if v, _ := tr.UWA().Get("student", "gpa"); v.Kind() != abdm.KindFloat {
		t.Errorf("gpa kind = %v", v.Kind())
	}
	// String into an integer attribute fails.
	if err := execErr(t, tr, "MOVE 'four' TO credits IN course"); !strings.Contains(err.Error(), "wants") {
		t.Errorf("err = %v", err)
	}
}

func itoa(k int64) string {
	return abdm.Int(k).String()
}

func TestFindAnyWithoutUsing(t *testing.T) {
	tr := newSession(t)
	out := exec(t, tr, "FIND ANY course")
	if !out.Found || out.Record != "course" {
		t.Fatalf("outcome = %+v", out)
	}
	if out.Requests[0] != "RETRIEVE ((FILE = 'course')) (all attributes)" {
		t.Errorf("request = %q", out.Requests[0])
	}
}
