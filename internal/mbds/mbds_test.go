package mbds

import (
	"fmt"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

func testDir(t *testing.T) *abdm.Directory {
	t.Helper()
	d := abdm.NewDirectory()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.DefineAttr("name", abdm.KindString))
	must(d.DefineAttr("dept", abdm.KindString))
	must(d.DefineAttr("salary", abdm.KindInt))
	must(d.DefineFile("employee", []string{"name", "dept", "salary"}))
	return d
}

func newSystem(t *testing.T, n int) *System {
	t.Helper()
	s, err := New(testDir(t), DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func loadEmployees(t *testing.T, s *System, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := abdm.NewRecord("employee",
			abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("emp%04d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String([]string{"CS", "EE", "ME", "CE"}[i%4])},
			abdm.Keyword{Attr: "salary", Val: abdm.Int(int64(30000 + 100*i))},
		)
		if _, err := s.Exec(abdl.NewInsert(rec)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestSystemNewValidation(t *testing.T) {
	if _, err := New(testDir(t), Config{Backends: 0}); err == nil {
		t.Error("zero backends accepted")
	}
}

func TestSystemInsertDistribution(t *testing.T) {
	s := newSystem(t, 4)
	loadEmployees(t, s, 100)
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	sizes := s.PartitionSizes()
	for i, n := range sizes {
		if n != 25 {
			t.Errorf("backend %d holds %d records, want 25 (round robin)", i, n)
		}
	}
}

func TestSystemHashPlacementDeterministic(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Placement = HashKeywords
	a, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	rec := abdm.NewRecord("employee",
		abdm.Keyword{Attr: "name", Val: abdm.String("x")},
		abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
		abdm.Keyword{Attr: "salary", Val: abdm.Int(1)})
	if _, err := a.Exec(abdl.NewInsert(rec)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec(abdl.NewInsert(rec)); err != nil {
		t.Fatal(err)
	}
	for i := range a.PartitionSizes() {
		if a.PartitionSizes()[i] != b.PartitionSizes()[i] {
			t.Fatal("hash placement differs between identical systems")
		}
	}
}

func TestSystemRetrieveMergesPartitions(t *testing.T) {
	s := newSystem(t, 4)
	loadEmployees(t, s, 80)
	res, err := s.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	), abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 20 {
		t.Fatalf("CS employees = %d, want 20", len(res.Records))
	}
	// Results must be ordered by database key after merging.
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i-1].ID >= res.Records[i].ID {
			t.Fatal("merged results not ordered by ID")
		}
	}
}

func TestSystemResultsInvariantAcrossBackendCounts(t *testing.T) {
	// The same logical database must answer identically for any backend
	// count — the core MBDS transparency property.
	counts := []int{1, 2, 3, 5, 8}
	var want []string
	for _, n := range counts {
		s := newSystem(t, n)
		loadEmployees(t, s, 60)
		res, err := s.Exec(abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: "salary", Op: abdm.OpGe, Val: abdm.Int(33000)},
		), "name"))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, sr := range res.Records {
			v, _ := sr.Rec.Get("name")
			got = append(got, v.AsString())
		}
		// Sort-insensitive comparison: IDs differ across placements.
		gotSet := make(map[string]bool)
		for _, g := range got {
			gotSet[g] = true
		}
		if want == nil {
			for g := range gotSet {
				want = append(want, g)
			}
			continue
		}
		if len(gotSet) != len(want) {
			t.Fatalf("backend count %d: %d results, want %d", n, len(gotSet), len(want))
		}
		for _, w := range want {
			if !gotSet[w] {
				t.Fatalf("backend count %d: missing %q", n, w)
			}
		}
	}
}

func TestSystemDeleteUpdateSpanPartitions(t *testing.T) {
	s := newSystem(t, 3)
	loadEmployees(t, s, 30)
	upd, err := s.Exec(abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	), abdl.Modifier{Attr: "salary", Val: abdm.Int(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if upd.Count != 8 {
		t.Fatalf("updated %d, want 8", upd.Count)
	}
	del, err := s.Exec(abdl.NewDelete(abdm.And(
		abdm.Predicate{Attr: "salary", Op: abdm.OpEq, Val: abdm.Int(1)},
	)))
	if err != nil {
		t.Fatal(err)
	}
	if del.Count != 8 {
		t.Fatalf("deleted %d, want 8", del.Count)
	}
	if s.Len() != 22 {
		t.Errorf("Len = %d, want 22", s.Len())
	}
}

func TestSystemAggregateAcrossPartitions(t *testing.T) {
	s := newSystem(t, 4)
	loadEmployees(t, s, 40) // salaries 30000..33900 step 100
	res, err := s.Exec(&abdl.Request{
		Kind:  abdl.Retrieve,
		Query: abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("employee")}),
		Target: []abdl.TargetItem{
			{Agg: abdl.AggCount, Attr: "name"},
			{Agg: abdl.AggAvg, Attr: "salary"},
			{Agg: abdl.AggMax, Attr: "salary"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 1 {
		t.Fatalf("groups = %d", len(res.Groups))
	}
	aggs := res.Groups[0].Aggs
	if aggs[0].Val.AsInt() != 40 {
		t.Errorf("COUNT = %v", aggs[0].Val)
	}
	wantAvg := 30000.0 + 100*39.0/2
	if aggs[1].Val.AsFloat() != wantAvg {
		t.Errorf("AVG = %v, want %v (must not average partial averages)", aggs[1].Val, wantAvg)
	}
	if aggs[2].Val.AsInt() != 33900 {
		t.Errorf("MAX = %v", aggs[2].Val)
	}
}

func TestSystemGroupByAcrossPartitions(t *testing.T) {
	s := newSystem(t, 3)
	loadEmployees(t, s, 24)
	res, err := s.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("employee")},
	), abdl.AllAttrs).WithBy("dept"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %d, want 4", len(res.Groups))
	}
	for _, g := range res.Groups {
		if len(g.Recs) != 6 {
			t.Errorf("group %v has %d records, want 6", g.By, len(g.Recs))
		}
	}
}

func TestSystemResponseTimeReciprocal(t *testing.T) {
	// MBDS claim 1: fixed database, more backends => response time drops
	// near-reciprocally.
	const dbSize = 512
	times := make(map[int]time.Duration)
	for _, n := range []int{1, 2, 4, 8} {
		s := newSystem(t, n)
		loadEmployees(t, s, dbSize)
		_, rt, err := s.ExecTimed(abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("employee")},
		), "name"))
		if err != nil {
			t.Fatal(err)
		}
		times[n] = rt
	}
	if !(times[1] > times[2] && times[2] > times[4] && times[4] > times[8]) {
		t.Errorf("response times not decreasing: %v", times)
	}
	// Near-reciprocal: doubling backends should cut at least 30% of the time.
	for _, pair := range [][2]int{{1, 2}, {2, 4}, {4, 8}} {
		a, b := times[pair[0]], times[pair[1]]
		if float64(b) > 0.7*float64(a) {
			t.Errorf("backends %d->%d: %v -> %v, expected near-halving", pair[0], pair[1], a, b)
		}
	}
}

func TestSystemCapacityInvariance(t *testing.T) {
	// MBDS claim 2: database grows proportionally with backends =>
	// response time invariant.
	base := 256
	var times []time.Duration
	for _, n := range []int{1, 2, 4} {
		s := newSystem(t, n)
		loadEmployees(t, s, base*n)
		_, rt, err := s.ExecTimed(abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("employee")},
		), "name"))
		if err != nil {
			t.Fatal(err)
		}
		times = append(times, rt)
	}
	for i := 1; i < len(times); i++ {
		ratio := float64(times[i]) / float64(times[0])
		if ratio > 1.25 || ratio < 0.75 {
			t.Errorf("capacity growth broke invariance: times %v", times)
		}
	}
}

func TestSystemGetByID(t *testing.T) {
	s := newSystem(t, 3)
	loadEmployees(t, s, 9)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 9 {
		t.Fatalf("snapshot = %d", len(snap))
	}
	rec, ok := s.GetByID(snap[4].ID)
	if !ok || !rec.Equal(snap[4].Rec) {
		t.Error("GetByID mismatch")
	}
	if _, ok := s.GetByID(12345); ok {
		t.Error("phantom ID found")
	}
}

func TestSystemUniqueKeysAcrossBackends(t *testing.T) {
	s := newSystem(t, 4)
	loadEmployees(t, s, 50)
	seen := make(map[abdm.RecordID]bool)
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range snap {
		if seen[sr.ID] {
			t.Fatalf("database key %d assigned twice", sr.ID)
		}
		seen[sr.ID] = true
	}
}

func TestSystemClosed(t *testing.T) {
	s := newSystem(t, 1)
	s.Close()
	s.Close() // idempotent
	if _, err := s.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs)); err != ErrClosed {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestSystemSerialSlowerShape(t *testing.T) {
	// The serial-dispatch ablation must still return correct results.
	cfg := DefaultConfig(4)
	cfg.Serial = true
	s, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	loadEmployees(t, s, 20)
	res, err := s.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("employee")},
	), abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 20 {
		t.Errorf("serial dispatch lost records: %d", len(res.Records))
	}
}

func TestSystemConcurrentClients(t *testing.T) {
	s := newSystem(t, 4)
	loadEmployees(t, s, 40)
	errs := make(chan error, 16)
	for c := 0; c < 16; c++ {
		go func(c int) {
			for i := 0; i < 20; i++ {
				_, err := s.Exec(abdl.NewRetrieve(abdm.And(
					abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
				), "name"))
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	for c := 0; c < 16; c++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var _ = kdb.DefaultDiskModel // keep kdb import referenced if tests shrink
