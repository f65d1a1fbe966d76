package mbds

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

// faultyConfig is the test policy: fault injection on, tight deadlines,
// fast retries and probes so breaker transitions happen within the test.
func faultyConfig(n, replicas int) Config {
	cfg := DefaultConfig(n)
	cfg.FaultInjection = true
	cfg.Replicas = replicas
	cfg.RequestTimeout = 100 * time.Millisecond
	cfg.MaxRetries = 2
	cfg.RetryBackoff = time.Millisecond
	cfg.BreakerThreshold = 3
	cfg.ProbePeriod = time.Millisecond
	return cfg
}

func newFaultySystem(t *testing.T, n, replicas int) *System {
	t.Helper()
	s, err := New(testDir(t), faultyConfig(n, replicas))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// retrieveNames returns the sorted employee names a full retrieve sees.
func retrieveNames(t *testing.T, s *System) []string {
	t.Helper()
	res, err := s.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("employee")},
	), "name"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(res.Records))
	for _, sr := range res.Records {
		v, _ := sr.Rec.Get("name")
		names = append(names, v.AsString())
	}
	sort.Strings(names)
	return names
}

// recoverBackend clears backend i's fault and drives a probe until the
// breaker closes again.
func recoverBackend(t *testing.T, s *System, i int) {
	t.Helper()
	s.Fault(i).SetPlan(nil)
	for attempt := 0; attempt < 50; attempt++ {
		time.Sleep(2 * time.Millisecond)
		retrieveNames(t, s)
		if s.Health()[i].Up {
			return
		}
	}
	t.Fatalf("backend %d did not recover: %v", i, s.Health()[i])
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFaultyExecutorSelection(t *testing.T) {
	dir := testDir(t)
	store := kdb.NewStore(dir.Clone())
	f := NewFaultyExecutor(store)
	probe := abdl.NewRetrieve(nil, abdl.AllAttrs)
	one := func(e Executor) error {
		return e.ExecBatch([]*abdl.Request{probe}, make([]*kdb.Result, 1))
	}

	// Healthy by default.
	if err := one(f); err != nil {
		t.Fatalf("healthy exec: %v", err)
	}

	// Every 3rd request fails.
	f.SetPlan(&FaultPlan{Mode: FaultErr, EveryN: 3})
	var failed int
	for i := 0; i < 9; i++ {
		if err := one(f); err != nil {
			var inj *InjectedError
			if !errors.As(err, &inj) {
				t.Fatalf("unexpected error type: %v", err)
			}
			failed++
		}
	}
	if failed != 3 || f.Injected() != 3 {
		t.Fatalf("EveryN=3 over 9 requests: failed=%d injected=%d", failed, f.Injected())
	}

	// Fraction selection is deterministic under a fixed seed.
	countFor := func(seed uint64) int {
		g := NewFaultyExecutor(store)
		g.SetPlan(&FaultPlan{Mode: FaultDrop, Fraction: 0.5, Seed: seed})
		n := 0
		for i := 0; i < 200; i++ {
			if err := one(g); err != nil {
				n++
			}
		}
		return n
	}
	a, b := countFor(42), countFor(42)
	if a != b {
		t.Fatalf("same seed, different injections: %d vs %d", a, b)
	}
	if a < 60 || a > 140 {
		t.Fatalf("fraction 0.5 injected %d/200", a)
	}

	// Delay mode executes the request after the pause.
	f.SetPlan(&FaultPlan{Mode: FaultDelay, EveryN: 1, Delay: time.Millisecond})
	start := time.Now()
	if err := one(f); err != nil {
		t.Fatalf("delay exec: %v", err)
	}
	if time.Since(start) < time.Millisecond {
		t.Error("delay fault did not delay")
	}

	// A share fails at its first faulted request: the requests before it
	// have run, the ones after it have not.
	f.SetPlan(&FaultPlan{Mode: FaultErr, EveryN: 2})
	share := []*abdl.Request{probe, probe, probe}
	out := make([]*kdb.Result, len(share))
	var inj *InjectedError
	if err := f.ExecBatch(share, out); !errors.As(err, &inj) {
		t.Fatalf("share under EveryN=2: err = %v, want an InjectedError", err)
	}
	if out[0] == nil || out[1] != nil || out[2] != nil {
		t.Fatalf("share results %v, want the first request's only", out)
	}
}

func TestBroadcastToleratesErroringBackend(t *testing.T) {
	s := newFaultySystem(t, 4, 1)
	loadEmployees(t, s, 60)
	healthy := retrieveNames(t, s)
	if len(healthy) != 60 {
		t.Fatalf("healthy retrieve = %d records", len(healthy))
	}

	s.Fault(1).Fail(true)
	degraded := retrieveNames(t, s)
	if !equalStrings(healthy, degraded) {
		t.Fatalf("degraded retrieve differs: %d vs %d records", len(healthy), len(degraded))
	}

	// Aggregates must be computed over deduplicated records.
	agg, err := s.Exec(&abdl.Request{
		Kind:  abdl.Retrieve,
		Query: abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("employee")}),
		Target: []abdl.TargetItem{
			{Agg: abdl.AggCount, Attr: "name"},
			{Agg: abdl.AggAvg, Attr: "salary"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := agg.Groups[0].Aggs[0].Val.AsInt(); got != 60 {
		t.Errorf("degraded COUNT = %d, want 60", got)
	}
	wantAvg := 30000.0 + 100*59.0/2
	if got := agg.Groups[0].Aggs[1].Val.AsFloat(); got != wantAvg {
		t.Errorf("degraded AVG = %v, want %v", got, wantAvg)
	}

	// Group-by must dedup group members too.
	byDept, err := s.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("employee")},
	), abdl.AllAttrs).WithBy("dept"))
	if err != nil {
		t.Fatal(err)
	}
	if len(byDept.Groups) != 4 {
		t.Fatalf("degraded groups = %d", len(byDept.Groups))
	}
	for _, g := range byDept.Groups {
		if len(g.Recs) != 15 {
			t.Errorf("degraded group %v has %d records, want 15", g.By, len(g.Recs))
		}
	}
	recoverBackend(t, s, 1)
}

func TestBroadcastHangingBackendDeadline(t *testing.T) {
	s := newFaultySystem(t, 3, 1)
	loadEmployees(t, s, 30)
	healthy := retrieveNames(t, s)

	s.Fault(2).SetPlan(&FaultPlan{Mode: FaultHang, EveryN: 1})
	start := time.Now()
	degraded := retrieveNames(t, s)
	elapsed := time.Since(start)
	if !equalStrings(healthy, degraded) {
		t.Fatalf("retrieve with hung backend lost records: %d vs %d", len(healthy), len(degraded))
	}
	// One deadline per attempt, MaxRetries+1 attempts, plus slack.
	if limit := 3 * 4 * 100 * time.Millisecond; elapsed > limit {
		t.Errorf("hung-backend retrieve took %v, want < %v", elapsed, limit)
	}
	recoverBackend(t, s, 2)
}

func TestFlappingBackendRetriesRecover(t *testing.T) {
	s := newFaultySystem(t, 4, 1)
	loadEmployees(t, s, 40)
	healthy := retrieveNames(t, s)

	// Backend 0 drops ~40% of requests, deterministically.
	s.Fault(0).SetPlan(&FaultPlan{Mode: FaultDrop, Fraction: 0.4, Seed: 7})
	for i := 0; i < 30; i++ {
		got := retrieveNames(t, s)
		if !equalStrings(healthy, got) {
			t.Fatalf("iteration %d: flapping backend lost records: %d vs %d", i, len(healthy), len(got))
		}
	}

	// Inserts keep succeeding while backend 0 flaps: every record has a
	// healthy replica holder.
	for i := 0; i < 20; i++ {
		rec := abdm.NewRecord("employee",
			abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("flap%02d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
			abdm.Keyword{Attr: "salary", Val: abdm.Int(1)},
		)
		if _, err := s.Exec(abdl.NewInsert(rec)); err != nil {
			t.Fatalf("insert %d during flapping: %v", i, err)
		}
	}
	recoverBackend(t, s, 0)
	if got := retrieveNames(t, s); len(got) != 60 {
		t.Fatalf("after flapping: %d records, want 60", len(got))
	}
	h := s.Health()[0]
	if h.Retries == 0 {
		t.Error("flapping produced no retries")
	}
}

func TestReplicaInvariantWithDownBackends(t *testing.T) {
	// The MBDS transparency invariant, extended: identical results with up
	// to Replicas backends forced down.
	t.Run("replicas=1 any single backend down", func(t *testing.T) {
		s := newFaultySystem(t, 4, 1)
		loadEmployees(t, s, 80)
		healthy := retrieveNames(t, s)
		for down := 0; down < 4; down++ {
			s.Fault(down).Fail(true)
			if got := retrieveNames(t, s); !equalStrings(healthy, got) {
				t.Fatalf("backend %d down: %d records, want %d", down, len(got), len(healthy))
			}
			recoverBackend(t, s, down)
		}
	})
	t.Run("replicas=2 any backend pair down", func(t *testing.T) {
		s := newFaultySystem(t, 5, 2)
		loadEmployees(t, s, 50)
		healthy := retrieveNames(t, s)
		for _, pair := range [][2]int{{0, 1}, {1, 3}, {2, 4}} {
			s.Fault(pair[0]).Fail(true)
			s.Fault(pair[1]).Fail(true)
			if got := retrieveNames(t, s); !equalStrings(healthy, got) {
				t.Fatalf("backends %v down: %d records, want %d", pair, len(got), len(healthy))
			}
			recoverBackend(t, s, pair[0])
			recoverBackend(t, s, pair[1])
		}
	})
}

func TestInsertsDuringDowntimeSurvive(t *testing.T) {
	s := newFaultySystem(t, 3, 1)
	loadEmployees(t, s, 12)

	s.Fault(1).Fail(true)
	for i := 0; i < 9; i++ {
		rec := abdm.NewRecord("employee",
			abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("down%02d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String("EE")},
			abdm.Keyword{Attr: "salary", Val: abdm.Int(int64(i))},
		)
		if _, err := s.Exec(abdl.NewInsert(rec)); err != nil {
			t.Fatalf("insert %d with backend down: %v", i, err)
		}
	}
	if got := retrieveNames(t, s); len(got) != 21 {
		t.Fatalf("degraded retrieve after inserts = %d, want 21", len(got))
	}
	recoverBackend(t, s, 1)
	// The recovered backend missed the downtime inserts; the surviving
	// copies still answer for them.
	if got := retrieveNames(t, s); len(got) != 21 {
		t.Fatalf("post-recovery retrieve = %d, want 21", len(got))
	}
}

func TestReplicatedWriteCountsAreLogical(t *testing.T) {
	s := newFaultySystem(t, 3, 1)
	loadEmployees(t, s, 30)
	// Each record exists on two backends; counts must not double.
	upd, err := s.Exec(abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	), abdl.Modifier{Attr: "salary", Val: abdm.Int(1)}))
	if err != nil {
		t.Fatal(err)
	}
	if upd.Count != 8 {
		t.Fatalf("replicated update Count = %d, want 8", upd.Count)
	}
	del, err := s.Exec(abdl.NewDelete(abdm.And(
		abdm.Predicate{Attr: "salary", Op: abdm.OpEq, Val: abdm.Int(1)},
	)))
	if err != nil {
		t.Fatal(err)
	}
	if del.Count != 8 {
		t.Fatalf("replicated delete Count = %d, want 8", del.Count)
	}
	if got := retrieveNames(t, s); len(got) != 22 {
		t.Fatalf("after delete: %d records, want 22", len(got))
	}
}

func TestHealthDownAndRecovery(t *testing.T) {
	s := newFaultySystem(t, 3, 1)
	loadEmployees(t, s, 15)

	for _, h := range s.Health() {
		if !h.Up {
			t.Fatalf("backend %d down before any fault", h.ID)
		}
	}
	s.Fault(2).Fail(true)
	retrieveNames(t, s) // MaxRetries+1 failures >= BreakerThreshold: opens
	h := s.Health()[2]
	if h.Up {
		t.Fatalf("breaker did not open: %+v", h)
	}
	if h.DownSince.IsZero() || h.Failures == 0 || h.LastError == "" {
		t.Errorf("down health not populated: %+v", h)
	}
	recoverBackend(t, s, 2)
	h = s.Health()[2]
	if !h.Up || !h.DownSince.IsZero() {
		t.Errorf("recovered health wrong: %+v", h)
	}
}

// TestDeadlineInsertLeavesOneCopy: the controller pins every insert's key,
// so an insert is idempotent — it is retried after a missed deadline (the
// late attempt may still execute), and however many attempts reach the
// backend, exactly one copy of the record is left.
func TestDeadlineInsertLeavesOneCopy(t *testing.T) {
	cfg := faultyConfig(1, 0)
	cfg.RequestTimeout = 20 * time.Millisecond
	s, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	// Every attempt executes, but only after its deadline has passed.
	s.Fault(0).SetPlan(&FaultPlan{Mode: FaultDelay, EveryN: 1, Delay: 30 * time.Millisecond})
	rec := abdm.NewRecord("employee",
		abdm.Keyword{Attr: "name", Val: abdm.String("x")},
		abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
		abdm.Keyword{Attr: "salary", Val: abdm.Int(1)})
	_, err = s.Exec(abdl.NewInsert(rec))
	var dl *DeadlineError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlineError", err)
	}
	if h := s.Health()[0]; h.Retries == 0 {
		t.Error("the pinned insert was not retried after its deadline")
	}
	s.Fault(0).SetPlan(nil)
	// A call after a missed deadline waits for the abandoned attempt, so a
	// read the backend answers comes after every attempt it accepted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		res, err := s.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
		if err == nil {
			if len(res.Records) != 1 {
				t.Fatalf("%d copies of the retried insert, want 1", len(res.Records))
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backend never answered after the faults cleared: %v", err)
		}
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestSnapshotSurfacesLostPartition(t *testing.T) {
	boom := errors.New("partition unreadable")
	execs := []Executor{
		failingExec{err: boom},
		failingExec{err: boom},
	}
	s, err := NewWithExecutors(testDir(t), DefaultConfig(2), execs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot silently dropped an unreadable partition")
	}
}

// failingExec fails every share; its migration verbs are never called.
type failingExec struct {
	Executor
	err error
}

func (f failingExec) ExecBatch([]*abdl.Request, []*kdb.Result) error { return f.err }

func TestCloseExecConcurrentNoPanic(t *testing.T) {
	// Exec racing Close must return ErrClosed (or complete), never panic.
	for round := 0; round < 20; round++ {
		s, err := New(testDir(t), DefaultConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		loadEmployees(t, s, 8)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					_, err := s.Exec(abdl.NewRetrieve(abdm.And(
						abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
					), "name"))
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("concurrent exec: %v", err)
						}
						return
					}
				}
			}()
		}
		s.Close()
		wg.Wait()
	}
}

// callTagger is an executor whose results carry their call number in Count,
// so a test can tell which attempt produced a merged result. The fault
// injector wrapping it hands it one request per call. Its first call clears
// the injector's fault plan: only the first attempt is faulted. Calls never
// overlap: a retry waits for the attempt it replaced.
type callTagger struct {
	Executor
	fault *FaultyExecutor
	calls int
}

func (c *callTagger) ExecBatch(reqs []*abdl.Request, out []*kdb.Result) error {
	for i, req := range reqs {
		c.calls++
		if c.calls == 1 {
			c.fault.SetPlan(nil)
		}
		out[i] = &kdb.Result{Op: req.Kind, Count: c.calls}
	}
	return nil
}

// TestLateReplyAfterDeadlineIsIgnored delays a backend's first attempt past
// the request deadline. The abandoned attempt still executes and writes its
// results late; the retry that succeeds must answer with its own results, for
// a round of one and for a multi-request round alike.
func TestLateReplyAfterDeadlineIsIgnored(t *testing.T) {
	for _, n := range []int{1, 3} {
		t.Run(fmt.Sprintf("requests=%d", n), func(t *testing.T) {
			cfg := faultyConfig(1, 0)
			cfg.RequestTimeout = 200 * time.Millisecond
			tagger := &callTagger{}
			s, err := NewWithExecutors(testDir(t), cfg, []Executor{tagger})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(s.Close)
			tagger.fault = s.Fault(0)
			// The delay only just overshoots the deadline: the retry waits
			// for the abandoned attempt and keeps the rest of its own
			// deadline.
			tagger.fault.SetPlan(&FaultPlan{Mode: FaultDelay, EveryN: 1, Delay: 220 * time.Millisecond})

			reqs := make([]*abdl.Request, n)
			for i := range reqs {
				reqs[i] = abdl.NewRetrieve(abdm.And(
					abdm.Predicate{Attr: "name", Op: abdm.OpEq, Val: abdm.String(fmt.Sprintf("emp%03d", i))},
				), "name")
			}
			var results []*kdb.Result
			if n == 1 {
				res, _, err := s.ExecTimed(reqs[0])
				if err != nil {
					t.Fatal(err)
				}
				results = []*kdb.Result{res}
			} else if results, _, err = s.ExecBatch(reqs); err != nil {
				t.Fatal(err)
			}
			// The abandoned attempt made calls 1..n, the retry n+1..2n.
			for i, res := range results {
				if want := n + 1 + i; res.Count != want {
					t.Errorf("request %d answered by call %d, want the retry's call %d", i, res.Count, want)
				}
			}
			if got := tagger.fault.Injected(); got != 1 {
				t.Errorf("injected %d delays, want 1", got)
			}
			if h := s.Health()[0]; h.Retries != 1 || h.Failures != 1 {
				t.Errorf("health after one missed deadline: %v", h)
			}
		})
	}
}

// slowOnce is a local partition whose first share after arming sleeps past
// the request deadline before it runs; returned closes when it is done.
type slowOnce struct {
	*kdb.Store
	delay    time.Duration
	armed    atomic.Bool
	returned chan struct{}
}

func (p *slowOnce) ExecBatch(reqs []*abdl.Request, out []*kdb.Result) error {
	if p.armed.CompareAndSwap(true, false) {
		defer close(p.returned)
		time.Sleep(p.delay)
	}
	return p.Store.ExecBatch(reqs, out)
}

// TestNoLateWriteAfterAbandonedAttempt: an UPDATE's first attempt misses its
// deadline and is retried; the next UPDATE must not be overwritten by the
// abandoned attempt when it finally runs. A call after a missed deadline
// waits for the abandoned attempt, so the writes land in statement order.
func TestNoLateWriteAfterAbandonedAttempt(t *testing.T) {
	part := &slowOnce{Store: kdb.NewStore(testDir(t)), delay: 80 * time.Millisecond, returned: make(chan struct{})}
	cfg := DefaultConfig(1)
	cfg.RequestTimeout = 50 * time.Millisecond
	cfg.MaxRetries = 2
	cfg.RetryBackoff = time.Millisecond
	s, err := NewWithExecutors(testDir(t), cfg, []Executor{part})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	loadEmployees(t, s, 1)
	who := abdm.And(abdm.Predicate{Attr: "name", Op: abdm.OpEq, Val: abdm.String("emp0000")})
	setSalary := func(v int64) {
		t.Helper()
		if _, err := s.Exec(abdl.NewUpdate(who, abdl.Modifier{Attr: "salary", Val: abdm.Int(v)})); err != nil {
			t.Fatal(err)
		}
	}

	part.armed.Store(true)
	setSalary(1) // the first attempt is abandoned, the retry succeeds
	if h := s.Health()[0]; h.Retries == 0 {
		t.Fatal("the delayed UPDATE was not retried")
	}
	setSalary(2)
	<-part.returned
	res, err := s.Exec(abdl.NewRetrieve(who, "salary"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := res.Records[0].Rec.Get("salary"); got.AsInt() != 2 {
		t.Fatalf("salary = %d after the abandoned attempt returned, want 2", got.AsInt())
	}
}
