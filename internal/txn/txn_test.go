package txn

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/mbds"
)

// newManager builds a manager over a real two-backend kernel with files
// "f" and "g" (one int attribute x each).
func newManager(t *testing.T, cfg Config) (*Manager, *mbds.System) {
	t.Helper()
	dir := abdm.NewDirectory()
	if err := dir.DefineAttr("x", abdm.KindInt); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"f", "g"} {
		if err := dir.DefineFile(f, []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := mbds.New(dir, mbds.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	cfg.Exec = sys
	return NewManager(cfg), sys
}

func insert(file string, v int64) *abdl.Request {
	return abdl.NewInsert(abdm.NewRecord(file, abdm.Keyword{Attr: "x", Val: abdm.Int(v)}))
}

func retrieveEq(v int64) *abdl.Request {
	return abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")},
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(v)}), abdl.AllAttrs)
}

func update(from, to int64) *abdl.Request {
	return abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")},
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(from)}),
		abdl.Modifier{Attr: "x", Val: abdm.Int(to)})
}

func countEq(t *testing.T, m *Manager, v int64) int {
	t.Helper()
	tx := m.Begin()
	defer m.Commit(tx)
	res, _, err := m.Exec(context.Background(), tx, retrieveEq(v))
	if err != nil {
		t.Fatal(err)
	}
	return len(res.Records)
}

func TestCompatMatrix(t *testing.T) {
	cases := []struct {
		a, b Mode
		want bool
	}{
		{IS, X, false}, {IS, SIX, true}, {IX, IX, true}, {IX, S, false},
		{S, S, true}, {S, IX, false}, {SIX, IS, true}, {SIX, S, false},
		{X, IS, false}, {X, X, false},
	}
	for _, c := range cases {
		if got := compatible(c.a, c.b); got != c.want {
			t.Errorf("compatible(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := compatible(c.b, c.a); got != c.want {
			t.Errorf("compatible(%v, %v) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}

func TestLub(t *testing.T) {
	cases := []struct{ a, b, want Mode }{
		{modeNone, S, S}, {IS, IX, IX}, {S, IX, SIX}, {IX, S, SIX},
		{S, X, X}, {SIX, IX, SIX}, {S, S, S}, {IS, X, X},
	}
	for _, c := range cases {
		if got := lub(c.a, c.b); got != c.want {
			t.Errorf("lub(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestCommitAndAbortRestore: an aborted transaction's INSERT, UPDATE, and
// DELETE are all rolled back exactly; a committed one persists.
func TestCommitAndAbortRestore(t *testing.T) {
	m, _ := newManager(t, Config{})
	ctx := context.Background()

	tx := m.Begin()
	for _, v := range []int64{1, 2} {
		if _, _, err := m.Exec(ctx, tx, insert("f", v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}

	tx = m.Begin()
	if _, _, err := m.Exec(ctx, tx, insert("f", 3)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Exec(ctx, tx, update(1, 10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Exec(ctx, tx, abdl.NewDelete(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")},
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(2)}))); err != nil {
		t.Fatal(err)
	}
	// Inside the transaction the changes are visible.
	if res, _, err := m.Exec(ctx, tx, retrieveEq(10)); err != nil || len(res.Records) != 1 {
		t.Fatalf("in-txn update invisible: res=%v err=%v", res, err)
	}
	if err := m.Abort(tx); err != nil {
		t.Fatal(err)
	}

	for v, want := range map[int64]int{1: 1, 2: 1, 3: 0, 10: 0} {
		if got := countEq(t, m, v); got != want {
			t.Errorf("after abort, count(x=%d) = %d, want %d", v, got, want)
		}
	}
	st := m.Stats()
	if st.Commits == 0 || st.Aborts != 1 {
		t.Errorf("stats = %+v, want 1 abort and some commits", st)
	}
}

// TestStatementAfterFinish: statements on a finished transaction fail with
// ErrNotActive, and finishing twice is harmless.
func TestStatementAfterFinish(t *testing.T) {
	m, _ := newManager(t, Config{})
	ctx := context.Background()
	tx := m.Begin()
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Exec(ctx, tx, insert("f", 1)); !errors.Is(err, ErrNotActive) {
		t.Errorf("exec on committed txn: %v, want ErrNotActive", err)
	}
	if err := m.Commit(tx); !errors.Is(err, ErrNotActive) {
		t.Errorf("second commit: %v, want ErrNotActive", err)
	}
	if err := m.Abort(tx); err != nil {
		t.Errorf("abort after commit should be a no-op: %v", err)
	}
}

// TestSharedLocksCoexist: two readers of the same file proceed without
// blocking each other.
func TestSharedLocksCoexist(t *testing.T) {
	m, _ := newManager(t, Config{LockTimeout: 200 * time.Millisecond})
	ctx := context.Background()
	t1, t2 := m.Begin(), m.Begin()
	if _, _, err := m.Exec(ctx, t1, retrieveEq(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Exec(ctx, t2, retrieveEq(1)); err != nil {
		t.Fatal(err)
	}
	m.Commit(t1)
	m.Commit(t2)
}

// TestWriterBlocksUntilCommit: a writer holding X on a file blocks a second
// writer until commit releases the lock.
func TestWriterBlocksUntilCommit(t *testing.T) {
	m, _ := newManager(t, Config{LockTimeout: 5 * time.Second})
	ctx := context.Background()
	t1 := m.Begin()
	if _, _, err := m.Exec(ctx, t1, insert("f", 1)); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		t2 := m.Begin()
		close(entered)
		_, _, err := m.Exec(ctx, t2, insert("f", 2))
		if err == nil {
			err = m.Commit(t2)
		}
		done <- err
	}()
	<-entered
	select {
	case err := <-done:
		t.Fatalf("second writer finished while first held X: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := m.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("second writer failed after release: %v", err)
	}
	if got := countEq(t, m, 2); got != 1 {
		t.Errorf("count(x=2) = %d, want 1", got)
	}
}

// TestDeadlockVictimIsYoungest: two transactions locking files f and g in
// opposite orders deadlock; the detector aborts the younger one and the
// older completes.
func TestDeadlockVictimIsYoungest(t *testing.T) {
	m, _ := newManager(t, Config{LockTimeout: 10 * time.Second})
	ctx := context.Background()
	older, younger := m.Begin(), m.Begin()
	if younger.ID() <= older.ID() {
		t.Fatalf("ids not monotonic: %d then %d", older.ID(), younger.ID())
	}
	if _, _, err := m.Exec(ctx, older, insert("f", 1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Exec(ctx, younger, insert("g", 1)); err != nil {
		t.Fatal(err)
	}
	olderDone := make(chan error, 1)
	go func() {
		// Blocks on younger's X(g) until the detector kills younger.
		_, _, err := m.Exec(ctx, older, insert("g", 2))
		olderDone <- err
	}()
	// Give the older transaction time to block, then close the cycle.
	time.Sleep(50 * time.Millisecond)
	_, _, err := m.Exec(ctx, younger, insert("f", 2))
	var ae *AbortedError
	if !errors.As(err, &ae) || !errors.Is(err, ErrDeadlock) {
		t.Fatalf("younger got %v, want AbortedError wrapping ErrDeadlock", err)
	}
	if younger.State() != Aborted {
		t.Errorf("younger state = %v, want aborted", younger.State())
	}
	if err := <-olderDone; err != nil {
		t.Fatalf("older transaction failed after victim abort: %v", err)
	}
	if err := m.Commit(older); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Deadlocks == 0 {
		t.Error("deadlock not counted")
	}
	// Younger's insert into g was rolled back; older's survived.
	tx := m.Begin()
	res, _, err := m.Exec(ctx, tx, abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("g")}), abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	m.Commit(tx)
	if len(res.Records) != 1 {
		t.Errorf("file g holds %d records, want only the older txn's 1", len(res.Records))
	}
}

// TestLockTimeout: a waiter that cannot be granted and is not on a cycle
// aborts with ErrLockTimeout.
func TestLockTimeout(t *testing.T) {
	m, _ := newManager(t, Config{LockTimeout: 60 * time.Millisecond})
	ctx := context.Background()
	holder := m.Begin()
	if _, _, err := m.Exec(ctx, holder, insert("f", 1)); err != nil {
		t.Fatal(err)
	}
	waiterTx := m.Begin()
	_, _, err := m.Exec(ctx, waiterTx, insert("f", 2))
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("got %v, want ErrLockTimeout", err)
	}
	if err := m.Commit(holder); err != nil {
		t.Fatal(err)
	}
}

// TestUnqualifiedQueryLocksRoot: a query with no FILE restriction locks the
// root in S, which blocks any writer's IX.
func TestUnqualifiedQueryLocksRoot(t *testing.T) {
	m, _ := newManager(t, Config{LockTimeout: 60 * time.Millisecond})
	ctx := context.Background()
	reader := m.Begin()
	scan := abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpGe, Val: abdm.Int(0)}), abdl.AllAttrs)
	if _, _, err := m.Exec(ctx, reader, scan); err != nil {
		t.Fatal(err)
	}
	writer := m.Begin()
	_, _, err := m.Exec(ctx, writer, insert("f", 1))
	if !errors.Is(err, ErrLockTimeout) {
		t.Fatalf("writer got %v, want ErrLockTimeout against root S", err)
	}
	m.Commit(reader)
}

// sinkRecorder captures WriteCommits batches.
type sinkRecorder struct {
	mu      sync.Mutex
	batches [][]CommitRecord
}

func (s *sinkRecorder) WriteCommits(recs []CommitRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := make([]CommitRecord, len(recs))
	copy(cp, recs)
	s.batches = append(s.batches, cp)
	return nil
}

// TestGroupCommitBatches: concurrent committers produce fewer sink flushes
// than commits, and read-only transactions never reach the sink.
func TestGroupCommitBatches(t *testing.T) {
	sink := &sinkRecorder{}
	m, _ := newManager(t, Config{Sink: sink})
	ctx := context.Background()

	ro := m.Begin()
	if _, _, err := m.Exec(ctx, ro, retrieveEq(1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(ro); err != nil {
		t.Fatal(err)
	}
	if len(sink.batches) != 0 {
		t.Fatalf("read-only commit reached the sink: %v", sink.batches)
	}

	const writers = 16
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx := m.Begin()
			if _, _, err := m.Exec(ctx, tx, insert("g", int64(i))); err != nil {
				t.Error(err)
				m.Abort(tx)
				return
			}
			if err := m.Commit(tx); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	sink.mu.Lock()
	defer sink.mu.Unlock()
	total := 0
	for _, b := range sink.batches {
		total += len(b)
	}
	if total != writers {
		t.Fatalf("sink saw %d commit records, want %d", total, writers)
	}
	// Not a strict guarantee, but with 16 writers racing one flush leader
	// at least one batch should carry more than one record — and there can
	// never be more flushes than commits.
	if len(sink.batches) > writers {
		t.Errorf("%d flushes for %d commits", len(sink.batches), writers)
	}
}

// TestExecBatchUndo: a batch aborts atomically with its transaction.
func TestExecBatchUndo(t *testing.T) {
	m, _ := newManager(t, Config{})
	ctx := context.Background()
	tx := m.Begin()
	if _, _, err := m.ExecBatch(ctx, tx, []*abdl.Request{
		insert("f", 1), insert("f", 2), insert("g", 3),
	}); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(tx); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{1, 2} {
		if got := countEq(t, m, v); got != 0 {
			t.Errorf("after batch abort, count(x=%d) = %d, want 0", v, got)
		}
	}
}

// TestUndoWithReplicas: the delete-by-key + reinsert-by-key undo pair
// restores every replica copy of a record across backends.
func TestUndoWithReplicas(t *testing.T) {
	dir := abdm.NewDirectory()
	if err := dir.DefineAttr("x", abdm.KindInt); err != nil {
		t.Fatal(err)
	}
	if err := dir.DefineFile("f", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	cfg := mbds.DefaultConfig(3)
	cfg.Replicas = 1
	sys, err := mbds.New(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	m := NewManager(Config{Exec: sys})
	ctx := context.Background()

	tx := m.Begin()
	if _, _, err := m.Exec(ctx, tx, insert("f", 7)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	tx = m.Begin()
	if _, _, err := m.Exec(ctx, tx, update(7, 8)); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(tx); err != nil {
		t.Fatal(err)
	}
	res, _, err := sys.ExecTimedCtx(ctx, retrieveEq(7))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("after abort, %d records with x=7, want 1 (deduped)", len(res.Records))
	}
	if got, _, _ := sys.ExecTimedCtx(ctx, retrieveEq(8)); len(got.Records) != 0 {
		t.Fatalf("aborted update still visible: %d records with x=8", len(got.Records))
	}
}
