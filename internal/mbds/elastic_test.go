package mbds

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

// retrieveNames fetches every employee name in the system, deduplicated by
// the merge path exactly as a client would see it.
func nameCounts(t *testing.T, s *System) map[string]int {
	t.Helper()
	res, err := s.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
	if err != nil {
		t.Fatalf("retrieve: %v", err)
	}
	out := make(map[string]int)
	for _, sr := range res.Records {
		v, _ := sr.Rec.Get("name")
		out[v.AsString()]++
	}
	return out
}

// checkExact asserts the system holds exactly the n loadEmployees records,
// each once.
func checkExact(t *testing.T, s *System, n int) {
	t.Helper()
	names := nameCounts(t, s)
	if len(names) != n {
		t.Fatalf("retrieve sees %d distinct records, want %d", len(names), n)
	}
	for name, c := range names {
		if c != 1 {
			t.Fatalf("record %q returned %d times, want 1", name, c)
		}
	}
}

// checkPlacement asserts the placement invariant on a quiet system: every
// local partition holds exactly the keys whose holder set, by the rule over
// the current view, includes it.
func checkPlacement(t *testing.T, s *System) {
	t.Helper()
	view := s.viewSnap()
	for pos, b := range view {
		recs, err := b.store.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for _, sr := range recs {
			if !slices.Contains(s.holdersOf(view, sr.ID), b) {
				t.Fatalf("key %d sits on position %d, outside its holders", sr.ID, pos)
			}
		}
	}
	all, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(all) * s.holders(len(view)); s.Len() != want {
		t.Fatalf("%d copies of %d keys, want %d", s.Len(), len(all), want)
	}
}

// TestAddBackendJoins: a joined backend advances the epoch once and takes a
// share of new inserts, without disturbing existing data.
func TestAddBackendJoins(t *testing.T) {
	s := newSystem(t, 2)
	loadEmployees(t, s, 40)
	e0 := s.MembershipEpoch()
	pos, err := s.AddBackend()
	if err != nil {
		t.Fatal(err)
	}
	if pos != 2 || s.Backends() != 3 {
		t.Fatalf("joined at position %d with %d backends, want 2 and 3", pos, s.Backends())
	}
	if e := s.MembershipEpoch(); e != e0+1 {
		t.Fatalf("epoch %d after join, want %d", e, e0+1)
	}
	for i := 40; i < 70; i++ {
		rec := abdm.NewRecord("employee",
			abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("emp%04d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
			abdm.Keyword{Attr: "salary", Val: abdm.Int(1)})
		if _, err := s.Exec(abdl.NewInsert(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if sizes := s.PartitionSizes(); sizes[2] == 0 {
		t.Fatalf("new backend took no inserts: %v", sizes)
	}
	checkExact(t, s, 70)
}

// TestRebalanceFillsNewBackend: joining a backend rebalances the fleet — the
// joined backend holds the existing keys the grown view assigns it, each
// other backend exactly the keys the rule still names it for, and reads stay
// exact.
func TestRebalanceFillsNewBackend(t *testing.T) {
	s := newSystem(t, 2)
	loadEmployees(t, s, 60)
	pos, err := s.AddBackend()
	if err != nil {
		t.Fatal(err)
	}
	sizes := s.PartitionSizes()
	if sizes[pos] < 10 {
		t.Fatalf("rebalance moved too little onto the new backend: %v", sizes)
	}
	checkPlacement(t, s)
	if total := sizes[0] + sizes[1] + sizes[2]; total != 60 {
		t.Fatalf("rebalance changed the copy count: %v sums to %d, want 60", sizes, total)
	}
	checkExact(t, s, 60)
	if st := s.MigrationStats(); st.Keys == 0 || st.Bytes == 0 {
		t.Fatalf("migration counters not advanced: %+v", st)
	}
}

// TestDrainBackendPreservesData: draining moves every record — and its MVCC
// history — off the backend before retiring it.
func TestDrainBackendPreservesData(t *testing.T) {
	s := newSystem(t, 3)
	loadEmployees(t, s, 60)
	e0 := s.MembershipEpoch()
	if err := s.DrainBackend(1); err != nil {
		t.Fatal(err)
	}
	if s.Backends() != 2 {
		t.Fatalf("%d backends after drain, want 2", s.Backends())
	}
	if e := s.MembershipEpoch(); e <= e0 {
		t.Fatalf("epoch did not advance across drain: %d -> %d", e0, e)
	}
	if got := s.Len(); got != 60 {
		t.Fatalf("Len = %d after drain, want 60", got)
	}
	checkExact(t, s, 60)
	// Draining the last backend is refused.
	if err := s.DrainBackend(0); err != nil {
		t.Fatal(err)
	}
	if err := s.DrainBackend(0); err == nil {
		t.Fatal("draining the last backend succeeded")
	}
}

// TestDrainUnderLiveWrites: a drain under a concurrent insert workload loses
// no requests and no records — the ISSUE's zero-failed-requests criterion.
func TestDrainUnderLiveWrites(t *testing.T) {
	s := newSystem(t, 3)
	loadEmployees(t, s, 30)

	var wg sync.WaitGroup
	var failures, inserted atomic.Int64
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := abdm.NewRecord("employee",
					abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("live-%d-%d", w, i))},
					abdm.Keyword{Attr: "dept", Val: abdm.String("EE")},
					abdm.Keyword{Attr: "salary", Val: abdm.Int(int64(i))})
				if _, err := s.Exec(abdl.NewInsert(rec)); err != nil {
					failures.Add(1)
					return
				}
				inserted.Add(1)
			}
		}(w)
	}

	if err := s.DrainBackend(2); err != nil {
		t.Fatal(err)
	}
	if err := s.DrainBackend(1); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Fatalf("%d requests failed during the drains", f)
	}
	want := 30 + int(inserted.Load())
	checkExact(t, s, want)
	if got := s.Len(); got != want {
		t.Fatalf("Len = %d after drains, want %d", got, want)
	}
	checkPlacement(t, s)
}

// TestGrowAndDrainFollowDiskModel is E6's scaling curve on one fleet:
// growing from two backends to four cuts the simulated response of a
// retrieval of one department by at least 20%, and draining back to two
// restores the two-backend cost per record the slowest backend examines.
// That cost is compared, not the raw response, because the split a view
// gives one department depends on its records' database keys.
func TestGrowAndDrainFollowDiskModel(t *testing.T) {
	s := newSystem(t, 2)
	loadEmployees(t, s, 2000)
	q := abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	), "salary")
	// probe returns the simulated response and the records examined by the
	// backend that examines the most: the share the response waits for.
	probe := func() (time.Duration, int) {
		t.Helper()
		_, rt, err := s.ExecTimed(q)
		if err != nil {
			t.Fatal(err)
		}
		most := 0
		for pos := 0; pos < s.Backends(); pos++ {
			res, err := s.Store(pos).Exec(q)
			if err != nil {
				t.Fatal(err)
			}
			most = max(most, res.Cost.RecordsExam)
		}
		return rt, most
	}

	rt2, exam2 := probe()
	for i := 0; i < 2; i++ {
		if _, err := s.AddBackend(); err != nil {
			t.Fatal(err)
		}
	}
	rt4, _ := probe()
	if float64(rt4) > 0.8*float64(rt2) {
		t.Errorf("four backends answer in %v, two in %v: the doubling cut less than 20%%", rt4, rt2)
	}

	if err := s.DrainBackend(3); err != nil {
		t.Fatal(err)
	}
	if err := s.DrainBackend(2); err != nil {
		t.Fatal(err)
	}
	rtBack, examBack := probe()
	back := (float64(rtBack) / float64(examBack)) / (float64(rt2) / float64(exam2))
	if back < 0.8 || back > 1.2 {
		t.Errorf("drained back: %v for %d records on the slowest backend, initially %v for %d (ratio %.2f, want 0.8–1.2)",
			rtBack, examBack, rt2, exam2, back)
	}
	checkExact(t, s, 2000)
	checkPlacement(t, s)
}

// TestRemoveBackendPromotes: with one replica, losing a backend outright
// loses no committed record — the surviving copy of each of its keys is
// promoted, and the removal returns with the replication factor restored.
func TestRemoveBackendPromotes(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Replicas = 1
	s, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	loadEmployees(t, s, 60)
	if got := s.Len(); got != 120 {
		t.Fatalf("Len = %d with one replica, want 120", got)
	}

	if err := s.RemoveBackend(1); err != nil {
		t.Fatal(err)
	}
	checkExact(t, s, 60)
	if st := s.MigrationStats(); st.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", st.Promotions)
	}
	if got := s.Len(); got != 120 {
		t.Fatalf("replication factor not restored: Len = %d, want 120 (sizes %v)",
			got, s.PartitionSizes())
	}
	checkPlacement(t, s)
}

// TestFailoverMonitorPromotes: a backend whose breaker sticks open past
// FailoverAfter is removed automatically and reads keep answering exactly.
func TestFailoverMonitorPromotes(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Replicas = 1
	cfg.FaultInjection = true
	cfg.BreakerThreshold = 2
	cfg.MaxRetries = 0
	cfg.ProbePeriod = time.Hour // no half-open probes: the breaker stays open
	cfg.FailoverAfter = 50 * time.Millisecond
	cfg.FailoverCheck = 10 * time.Millisecond
	s, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	loadEmployees(t, s, 40)

	s.Fault(2).Fail(true)
	// Trip the breaker: broadcasts fail against backend 2 but succeed
	// overall (one replica tolerates one down backend).
	for i := 0; i < 3; i++ {
		if _, err := s.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs)); err != nil {
			t.Fatalf("degraded read failed: %v", err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Backends() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("failover monitor never removed the dead backend (health %v)", s.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := s.MigrationStats(); st.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", st.Promotions)
	}
	checkExact(t, s, 40)
}

// TestReplicatedAbortAndGCLeaveNoCopy: an aborted replicated insert leaves
// no copy on any holder, and a watermark GC that prunes deleted records'
// whole chains keeps reads exact.
func TestReplicatedAbortAndGCLeaveNoCopy(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Replicas = 1
	s, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	ins := abdl.NewInsert(abdm.NewRecord("employee",
		abdm.Keyword{Attr: "name", Val: abdm.String("ghost")},
		abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
		abdm.Keyword{Attr: "salary", Val: abdm.Int(1)}))
	ins.TxnID = 77
	res, err := s.Exec(ins)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("Len = %d after a replicated insert, want 2", got)
	}
	// The transaction manager's abort: the undo delete by key, then the
	// MVCC-ABORT broadcast.
	undo := abdl.NewDelete(abdm.And(abdm.Predicate{
		Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("employee")}))
	undo.ForceID, undo.NoVersion = res.Affected[0], true
	if _, err := s.Exec(undo); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(&abdl.Request{Kind: abdl.MvccAbort, TxnID: 77}); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != 0 {
		t.Fatalf("Len = %d after the abort, want 0", got)
	}
	if got := totalVersions(t, s); got != 0 {
		t.Fatalf("%d versions after the abort, want 0", got)
	}

	loadEmployees(t, s, 10)
	del := abdl.NewDelete(abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")}))
	del.TxnID = 78
	if _, err := s.Exec(del); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(&abdl.Request{Kind: abdl.MvccCommit, TxnID: 78, MvccEpoch: 50}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec(&abdl.Request{Kind: abdl.MvccGC, MvccEpoch: 51}); err != nil {
		t.Fatal(err)
	}
	// loadEmployees deals depts CS, EE, ME, CE in turn: 3 of the 10 are CS.
	checkExact(t, s, 7)
	if got := s.Len(); got != 14 {
		t.Fatalf("Len = %d after GC, want 14", got)
	}
}

// TestDrainWithReplicas: draining under replication keeps every key at full
// copy count on the survivors.
func TestDrainWithReplicas(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Replicas = 1
	s, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	loadEmployees(t, s, 40)
	if got := s.Len(); got != 80 {
		t.Fatalf("Len = %d, want 80", got)
	}
	if err := s.DrainBackend(1); err != nil {
		t.Fatal(err)
	}
	checkExact(t, s, 40)
	if got := s.Len(); got != 80 {
		t.Fatalf("Len = %d after drain, want 80 (sizes %v)", got, s.PartitionSizes())
	}
	checkPlacement(t, s)
}
