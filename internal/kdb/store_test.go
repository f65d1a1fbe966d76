package kdb

import (
	"fmt"
	"testing"
	"testing/quick"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

func testDir(t *testing.T) *abdm.Directory {
	t.Helper()
	d := abdm.NewDirectory()
	for _, def := range []struct {
		name string
		kind abdm.Kind
	}{
		{"title", abdm.KindString},
		{"dept", abdm.KindString},
		{"credits", abdm.KindInt},
		{"rating", abdm.KindFloat},
		{"name", abdm.KindString},
		{"age", abdm.KindInt},
	} {
		if err := d.DefineAttr(def.name, def.kind); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.DefineFile("course", []string{"title", "dept", "credits", "rating"}); err != nil {
		t.Fatal(err)
	}
	if err := d.DefineFile("person", []string{"name", "age"}); err != nil {
		t.Fatal(err)
	}
	return d
}

func loadCourses(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := abdm.NewRecord("course",
			abdm.Keyword{Attr: "title", Val: abdm.String(fmt.Sprintf("Course %03d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String([]string{"CS", "Math", "Physics"}[i%3])},
			abdm.Keyword{Attr: "credits", Val: abdm.Int(int64(1 + i%5))},
			abdm.Keyword{Attr: "rating", Val: abdm.Float(float64(i%10) / 2)},
		)
		if _, err := s.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
}

func retrieveAll(t *testing.T, s *Store, q abdm.Query) *Result {
	t.Helper()
	res, err := s.Exec(abdl.NewRetrieve(q, abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestStoreInsertRetrieve(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 30)
	if s.Len() != 30 || s.FileLen("course") != 30 {
		t.Fatalf("Len=%d FileLen=%d", s.Len(), s.FileLen("course"))
	}
	res := retrieveAll(t, s, abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")},
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	))
	if len(res.Records) != 10 {
		t.Fatalf("CS courses = %d, want 10", len(res.Records))
	}
	for _, sr := range res.Records {
		if v, _ := sr.Rec.Get("dept"); v.AsString() != "CS" {
			t.Errorf("non-CS record in result: %v", sr.Rec)
		}
	}
}

func TestStoreRetrieveProjection(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 5)
	res, err := s.Exec(abdl.NewRetrieve(
		abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")}),
		"title", "credits",
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Records {
		if sr.Rec.Has("dept") || sr.Rec.Has(abdm.FileAttr) {
			t.Errorf("projection leaked attributes: %v", sr.Rec)
		}
		if !sr.Rec.Has("title") || !sr.Rec.Has("credits") {
			t.Errorf("projection dropped attributes: %v", sr.Rec)
		}
	}
}

func TestStoreRetrieveRange(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 25)
	res := retrieveAll(t, s, abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")},
		abdm.Predicate{Attr: "credits", Op: abdm.OpGe, Val: abdm.Int(4)},
	))
	want := 0
	for i := 0; i < 25; i++ {
		if 1+i%5 >= 4 {
			want++
		}
	}
	if len(res.Records) != want {
		t.Errorf("credits>=4: %d, want %d", len(res.Records), want)
	}
}

func TestStoreRetrieveDisjunction(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 9)
	q := abdm.Query{
		{{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")}},
		{{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("Math")}},
	}
	res := retrieveAll(t, s, q)
	if len(res.Records) != 6 {
		t.Errorf("CS OR Math = %d, want 6", len(res.Records))
	}
}

func TestStoreDelete(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 12)
	res, err := s.Exec(abdl.NewDelete(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")},
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 4 {
		t.Fatalf("deleted %d, want 4", res.Count)
	}
	left := retrieveAll(t, s, abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	))
	if len(left.Records) != 0 {
		t.Errorf("CS records remain after delete: %d", len(left.Records))
	}
	if s.Len() != 8 {
		t.Errorf("Len = %d, want 8", s.Len())
	}
}

func TestStoreUpdate(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 10)
	res, err := s.Exec(abdl.NewUpdate(
		abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")}),
		abdl.Modifier{Attr: "credits", Val: abdm.Int(9)},
	))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 {
		t.Fatal("update affected nothing")
	}
	after := retrieveAll(t, s, abdm.And(
		abdm.Predicate{Attr: "credits", Op: abdm.OpEq, Val: abdm.Int(9)},
	))
	if len(after.Records) != res.Count {
		t.Errorf("index stale after update: %d via index, %d updated", len(after.Records), res.Count)
	}
	// Updated records must keep their database keys.
	for _, sr := range after.Records {
		if v, _ := sr.Rec.Get("dept"); v.AsString() != "CS" {
			t.Errorf("update hit wrong record: %v", sr.Rec)
		}
	}
}

func TestStoreUpdateToNull(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 3)
	_, err := s.Exec(abdl.NewUpdate(
		abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")}),
		abdl.Modifier{Attr: "rating", Val: abdm.Null()},
	))
	if err != nil {
		t.Fatal(err)
	}
	res := retrieveAll(t, s, abdm.And(
		abdm.Predicate{Attr: "rating", Op: abdm.OpEq, Val: abdm.Null()},
	))
	if len(res.Records) != 3 {
		t.Errorf("nulled ratings = %d, want 3", len(res.Records))
	}
}

func TestStoreUpdateRejectsBadModifier(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 1)
	_, err := s.Exec(abdl.NewUpdate(
		abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")}),
		abdl.Modifier{Attr: "credits", Val: abdm.String("four")},
	))
	if err == nil {
		t.Error("kind-mismatched modifier accepted")
	}
	_, err = s.Exec(abdl.NewUpdate(
		abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")}),
		abdl.Modifier{Attr: "nosuch", Val: abdm.Int(1)},
	))
	if err == nil {
		t.Error("modifier on undeclared attribute accepted")
	}
}

func TestStoreAggregates(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 15) // credits cycle 1..5 three times
	res, err := s.Exec(&abdl.Request{
		Kind:  abdl.Retrieve,
		Query: abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")}),
		Target: []abdl.TargetItem{
			{Agg: abdl.AggCount, Attr: "title"},
			{Agg: abdl.AggSum, Attr: "credits"},
			{Agg: abdl.AggAvg, Attr: "credits"},
			{Agg: abdl.AggMax, Attr: "credits"},
			{Agg: abdl.AggMin, Attr: "credits"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d, want 1", len(res.Groups))
	}
	aggs := res.Groups[0].Aggs
	wants := []abdm.Value{abdm.Int(15), abdm.Int(45), abdm.Float(3), abdm.Int(5), abdm.Int(1)}
	for i, w := range wants {
		if !aggs[i].Val.Equal(w) {
			t.Errorf("agg %v = %v, want %v", aggs[i].Item, aggs[i].Val, w)
		}
	}
}

func TestStoreGroupBy(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 9)
	res, err := s.Exec(abdl.NewRetrieve(
		abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")}),
		abdl.AllAttrs,
	).WithBy("dept"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Groups))
	}
	total := 0
	for _, g := range res.Groups {
		total += len(g.Recs)
	}
	if total != 9 {
		t.Errorf("grouped records = %d, want 9", total)
	}
}

func TestStoreEmptyQueryTouchesAllFiles(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 4)
	p := abdm.NewRecord("person",
		abdm.Keyword{Attr: "name", Val: abdm.String("Ann")},
		abdm.Keyword{Attr: "age", Val: abdm.Int(30)})
	if _, err := s.Insert(p); err != nil {
		t.Fatal(err)
	}
	res := retrieveAll(t, s, nil)
	if len(res.Records) != 5 {
		t.Errorf("unqualified retrieve = %d, want 5", len(res.Records))
	}
}

func TestStoreGetByID(t *testing.T) {
	s := NewStore(testDir(t))
	id, err := s.Insert(abdm.NewRecord("person",
		abdm.Keyword{Attr: "name", Val: abdm.String("Bob")},
		abdm.Keyword{Attr: "age", Val: abdm.Int(4)}))
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := s.GetByID(id)
	if !ok {
		t.Fatal("GetByID missed")
	}
	if v, _ := rec.Get("name"); v.AsString() != "Bob" {
		t.Errorf("wrong record: %v", rec)
	}
	if _, ok := s.GetByID(9999); ok {
		t.Error("GetByID hit a phantom")
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := NewStore(testDir(t))
	if _, err := s.Insert(abdm.NewRecord("nosuchfile")); err == nil {
		t.Error("insert into undeclared file accepted")
	}
	if _, err := s.Exec(abdl.NewDelete(abdm.And(
		abdm.Predicate{Attr: "nosuch", Op: abdm.OpEq, Val: abdm.Int(1)}))); err == nil {
		t.Error("delete on undeclared attribute accepted")
	}
}

func TestStoreIndexAndScanAgree(t *testing.T) {
	dirA, dirB := testDir(t), testDir(t)
	a := NewStore(dirA)
	b := NewStore(dirB, WithoutIndexes())
	for i := 0; i < 40; i++ {
		rec := abdm.NewRecord("course",
			abdm.Keyword{Attr: "title", Val: abdm.String(fmt.Sprintf("T%02d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String([]string{"CS", "EE"}[i%2])},
			abdm.Keyword{Attr: "credits", Val: abdm.Int(int64(i % 7))},
		)
		if _, err := a.Insert(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Insert(rec); err != nil {
			t.Fatal(err)
		}
	}
	queries := []abdm.Query{
		abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")}),
		abdm.And(abdm.Predicate{Attr: "credits", Op: abdm.OpGt, Val: abdm.Int(3)}),
		abdm.And(
			abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("EE")},
			abdm.Predicate{Attr: "credits", Op: abdm.OpLe, Val: abdm.Int(2)},
		),
	}
	for _, q := range queries {
		ra := retrieveAll(t, a, q)
		rb := retrieveAll(t, b, q)
		if len(ra.Records) != len(rb.Records) {
			t.Errorf("query %v: index %d vs scan %d records", q, len(ra.Records), len(rb.Records))
		}
	}
}

func TestStoreNumericIndexCrossKind(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 5) // credits 1..5
	// Float predicate against int attribute must still hit via the index.
	res := retrieveAll(t, s, abdm.And(
		abdm.Predicate{Attr: "credits", Op: abdm.OpEq, Val: abdm.Float(3)},
	))
	if len(res.Records) != 1 {
		t.Errorf("float-eq-int via index = %d, want 1", len(res.Records))
	}
}

func TestStoreCostAccounting(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 64)
	res := retrieveAll(t, s, abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")},
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	))
	if res.Cost.FilesTouched != 1 {
		t.Errorf("FilesTouched = %d, want 1", res.Cost.FilesTouched)
	}
	if res.Cost.BlocksRead == 0 || res.Cost.RecordsExam == 0 {
		t.Errorf("cost not charged: %+v", res.Cost)
	}
	m := DefaultDiskModel()
	if m.Time(res.Cost) <= 0 {
		t.Error("simulated time should be positive")
	}
	// Indexed access must examine fewer records than a scan of the file.
	if res.Cost.RecordsExam >= 64 {
		t.Errorf("index did not prune: examined %d of 64", res.Cost.RecordsExam)
	}
}

// TestStoreSaveLoadRoundTrip saves a store as its Snapshot and loads it into
// a fresh store keyed by the same database keys (the path MBDS takes when it
// redistributes records).
func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 20)
	a, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewStore(testDir(t))
	for _, sr := range a {
		if err := s2.InsertWithID(sr.ID, sr.Rec); err != nil {
			t.Fatal(err)
		}
	}
	if s2.Len() != 20 {
		t.Fatalf("loaded %d records, want 20", s2.Len())
	}
	b, err := s2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Rec.Equal(b[i].Rec) {
			t.Fatalf("record %d differs after round trip", i)
		}
	}
	// New inserts must not collide with loaded keys.
	id, err := s2.Insert(abdm.NewRecord("person",
		abdm.Keyword{Attr: "name", Val: abdm.String("Z")},
		abdm.Keyword{Attr: "age", Val: abdm.Int(1)}))
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range a {
		if sr.ID == id {
			t.Fatal("post-load insert reused a key")
		}
	}
}

func TestStoreInsertWithIDDuplicate(t *testing.T) {
	s := NewStore(testDir(t))
	rec := abdm.NewRecord("person",
		abdm.Keyword{Attr: "name", Val: abdm.String("A")},
		abdm.Keyword{Attr: "age", Val: abdm.Int(1)})
	if err := s.InsertWithID(7, rec); err != nil {
		t.Fatal(err)
	}
	if err := s.InsertWithID(7, rec); err == nil {
		t.Error("duplicate key accepted")
	}
}

// Property: insert then retrieve by unique key returns exactly that record.
func TestStoreInsertRetrieveProperty(t *testing.T) {
	s := NewStore(testDir(t))
	seen := make(map[int64]bool)
	f := func(age int64) bool {
		if seen[age] {
			return true
		}
		seen[age] = true
		rec := abdm.NewRecord("person",
			abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprint("p", age))},
			abdm.Keyword{Attr: "age", Val: abdm.Int(age)})
		if _, err := s.Insert(rec); err != nil {
			return false
		}
		res, err := s.Exec(abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: "age", Op: abdm.OpEq, Val: abdm.Int(age)},
		), abdl.AllAttrs))
		if err != nil {
			return false
		}
		return len(res.Records) == 1 && res.Records[0].Rec.Equal(rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: delete(q) implies retrieve(q) is empty.
func TestStoreDeleteRetrieveProperty(t *testing.T) {
	f := func(vals []int8) bool {
		s := NewStore(abdm.NewDirectory())
		if err := s.Directory().DefineAttr("v", abdm.KindInt); err != nil {
			return false
		}
		if err := s.Directory().DefineFile("f", []string{"v"}); err != nil {
			return false
		}
		for _, v := range vals {
			rec := abdm.NewRecord("f", abdm.Keyword{Attr: "v", Val: abdm.Int(int64(v))})
			if _, err := s.Insert(rec); err != nil {
				return false
			}
		}
		q := abdm.And(abdm.Predicate{Attr: "v", Op: abdm.OpGe, Val: abdm.Int(0)})
		if _, err := s.Exec(abdl.NewDelete(q)); err != nil {
			return false
		}
		res, err := s.Exec(abdl.NewRetrieve(q, abdl.AllAttrs))
		if err != nil {
			return false
		}
		return len(res.Records) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStoreRangeIndexPath(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 80)
	// A range-only conjunction (no usable equality other than FILE) should
	// use the range index: fewer records examined than the file holds.
	res := retrieveAll(t, s, abdm.Query{{
		{Attr: "credits", Op: abdm.OpGe, Val: abdm.Int(4)},
	}})
	want := 0
	for i := 0; i < 80; i++ {
		if 1+i%5 >= 4 {
			want++
		}
	}
	if len(res.Records) != want {
		t.Fatalf("records = %d, want %d", len(res.Records), want)
	}
	if res.Cost.RecordsExam >= 80 {
		t.Errorf("range index did not prune: examined %d of 80", res.Cost.RecordsExam)
	}
	if res.Cost.DirProbes == 0 {
		t.Error("range path should charge directory probes")
	}
}

func TestStoreRangeOnUnstoredAttr(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 5)
	// age is declared but never stored: a range predicate matches nothing,
	// and the planner may prove it without touching records.
	res := retrieveAll(t, s, abdm.Query{{
		{Attr: "age", Op: abdm.OpGt, Val: abdm.Int(0)},
	}})
	if len(res.Records) != 0 {
		t.Errorf("phantom matches: %d", len(res.Records))
	}
}

func TestStoreAccessPaths(t *testing.T) {
	s := NewStore(testDir(t))
	loadCourses(t, s, 20)
	cases := []struct {
		q    abdm.Query
		want string
	}{
		{abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")}), "index-eq(dept)"},
		{abdm.Query{{{Attr: "credits", Op: abdm.OpGe, Val: abdm.Int(4)}}}, "index-range(credits)"},
		{abdm.And(abdm.Predicate{Attr: "age", Op: abdm.OpEq, Val: abdm.Int(1)}), "empty(age)"},
		{nil, "scan(*)"},
	}
	for _, c := range cases {
		res := retrieveAll(t, s, c.q)
		if len(res.Paths) != 1 || res.Paths[0] != c.want {
			t.Errorf("query %v paths = %v, want [%s]", c.q, res.Paths, c.want)
		}
	}
	// Scan fallback: no indexes.
	ns := NewStore(testDir(t), WithoutIndexes())
	loadCourses(t, ns, 3)
	res := retrieveAll(t, ns, abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("course")},
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	))
	if len(res.Paths) != 1 || res.Paths[0] != "scan(course)" {
		t.Errorf("no-index paths = %v", res.Paths)
	}
}
