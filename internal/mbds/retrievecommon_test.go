package mbds

import (
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

// TestRetrieveCommonAcrossBackends verifies the two-phase semi-join when the
// joining records live on different backends.
func TestRetrieveCommonAcrossBackends(t *testing.T) {
	dir := abdm.NewDirectory()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(dir.DefineAttr("name", abdm.KindString))
	must(dir.DefineAttr("dept", abdm.KindString))
	must(dir.DefineAttr("budget", abdm.KindInt))
	must(dir.DefineFile("emp", []string{"name", "dept"}))
	must(dir.DefineFile("proj", []string{"name", "dept", "budget"}))

	s, err := New(dir, DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// 16 employees over 4 depts, 8 projects over 2 depts: placement
	// scatters both files over all backends, so phase-1 values must be
	// gathered globally for phase 2 to be correct.
	for i := 0; i < 16; i++ {
		rec := abdm.NewRecord("emp",
			abdm.Keyword{Attr: "name", Val: abdm.String(string(rune('a' + i)))},
			abdm.Keyword{Attr: "dept", Val: abdm.String([]string{"CS", "EE", "ME", "CE"}[i%4])})
		if _, err := s.Exec(abdl.NewInsert(rec)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		rec := abdm.NewRecord("proj",
			abdm.Keyword{Attr: "name", Val: abdm.String(string(rune('p' + i)))},
			abdm.Keyword{Attr: "dept", Val: abdm.String([]string{"CS", "EE"}[i%2])},
			abdm.Keyword{Attr: "budget", Val: abdm.Int(int64(10 * (i + 1)))})
		if _, err := s.Exec(abdl.NewInsert(rec)); err != nil {
			t.Fatal(err)
		}
	}

	req := abdl.NewRetrieveCommon(
		abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("emp")}),
		"dept",
		abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("proj")}),
		"name", "dept",
	)
	res, rt, err := s.ExecTimed(req)
	if err != nil {
		t.Fatal(err)
	}
	// CS and EE employees only: 8 of 16.
	if len(res.Records) != 8 {
		t.Fatalf("records = %d, want 8", len(res.Records))
	}
	for _, sr := range res.Records {
		v, _ := sr.Rec.Get("dept")
		if d := v.AsString(); d != "CS" && d != "EE" {
			t.Errorf("non-joining dept %q in result", d)
		}
	}
	if rt <= 0 {
		t.Error("two-phase join should accumulate simulated time")
	}

	// Narrowing the second query narrows the join.
	req2 := abdl.NewRetrieveCommon(
		abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("emp")}),
		"dept",
		abdm.And(
			abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("proj")},
			abdm.Predicate{Attr: "budget", Op: abdm.OpGe, Val: abdm.Int(80)},
		),
		"name",
	)
	res2, err := s.Exec(req2)
	if err != nil {
		t.Fatal(err)
	}
	// budgets 80 = project 7 (EE): only EE employees join.
	if len(res2.Records) != 4 {
		t.Errorf("narrowed join = %d records, want 4", len(res2.Records))
	}
}
