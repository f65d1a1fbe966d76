package kc

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/txn"
)

func retrieveX(v int64) *abdl.Request {
	return abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(v)}), abdl.AllAttrs)
}

// TestReplayTornTail is the regression test for crash-torn journals: a
// journal truncated at every byte offset of its final commit batch must
// replay the untouched prefix cleanly — no error — rather than failing on
// the torn entry.
func TestReplayTornTail(t *testing.T) {
	c := newController(t)
	var journal bytes.Buffer
	c.AttachJournal(&journal)

	// Three auto-committed statements; record the journal size after each
	// flush so the final batch's byte range is known exactly.
	var offsets []int
	for v := int64(1); v <= 3; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, journal.Len())
	}
	full := journal.Bytes()
	lastStart, lastEnd := offsets[1], offsets[2]
	if lastStart >= lastEnd {
		t.Fatalf("final batch is empty: offsets %v", offsets)
	}

	for cut := lastStart; cut < lastEnd; cut++ {
		c2 := newController(t)
		n, err := c2.RecoverJournal(bytes.NewReader(full[:cut]))
		if err != nil {
			t.Fatalf("cut at byte %d of [%d,%d): replay error %v", cut, lastStart, lastEnd, err)
		}
		// The two committed prefix statements always replay; the torn batch
		// contributes its data entry only if the cut fell after it.
		if n < 2 || n > 3 {
			t.Fatalf("cut at byte %d: replayed %d entries, want 2 or 3", cut, n)
		}
		res, err := c2.Exec(retrieveX(2))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 1 {
			t.Fatalf("cut at byte %d: prefix statement lost", cut)
		}
	}

	// The untruncated journal replays everything.
	c3 := newController(t)
	if n, err := c3.RecoverJournal(bytes.NewReader(full)); err != nil || n != 3 {
		t.Fatalf("full replay: n=%d err=%v, want 3, nil", n, err)
	}
}

// TestRecoverJournalCommittedOnly proves crash consistency: after a
// simulated crash mid-commit, RecoverJournal restores exactly the state of
// committed transactions — an uncommitted transaction's statements and a
// torn final commit batch leave no trace.
func TestRecoverJournalCommittedOnly(t *testing.T) {
	c := newController(t)
	var journal bytes.Buffer
	c.AttachJournal(&journal)
	ctx := context.Background()

	// Transaction A: committed. Its two inserts must survive recovery.
	a := c.Txns().Begin()
	actx := txn.NewContext(ctx, a)
	for _, v := range []int64{1, 2} {
		if _, err := c.ExecCtx(actx, insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Txns().Commit(a); err != nil {
		t.Fatal(err)
	}
	committedLen := journal.Len()

	// Transaction C: commits, but the crash tears its flush mid-batch.
	cc := c.Txns().Begin()
	cctx := txn.NewContext(ctx, cc)
	if _, err := c.ExecCtx(cctx, insertX(20)); err != nil {
		t.Fatal(err)
	}
	if err := c.Txns().Commit(cc); err != nil {
		t.Fatal(err)
	}
	if journal.Len() == committedLen {
		t.Fatal("transaction C journalled nothing")
	}

	// Transaction B: executed but never committed — the crash happens with
	// B in flight, so B's insert reaches the store but not the journal
	// (redo buffers until COMMIT).
	b := c.Txns().Begin()
	bctx := txn.NewContext(ctx, b)
	if _, err := c.ExecCtx(bctx, insertX(10)); err != nil {
		t.Fatal(err)
	}
	torn := append([]byte(nil), journal.Bytes()...)
	torn = torn[:committedLen+(journal.Len()-committedLen)/2]

	c2 := newController(t)
	n, err := c2.RecoverJournal(bytes.NewReader(torn))
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if n != 2 {
		t.Fatalf("recovered %d entries, want exactly transaction A's 2", n)
	}
	for v, want := range map[int64]int{1: 1, 2: 1, 10: 0, 20: 0} {
		res, err := c2.Exec(retrieveX(v))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != want {
			t.Errorf("after recovery, count(x=%d) = %d, want %d", v, len(res.Records), want)
		}
	}

	// The untorn journal recovers A and C but still not the uncommitted B.
	c3 := newController(t)
	if n, err := c3.RecoverJournal(bytes.NewReader(journal.Bytes())); err != nil || n != 3 {
		t.Fatalf("full recover: n=%d err=%v, want 3, nil", n, err)
	}
	if res, _ := c3.Exec(retrieveX(10)); len(res.Records) != 0 {
		t.Error("uncommitted transaction B resurrected by recovery")
	}
}

// TestAbortInvalidatesRetrieveCache: a retrieve cached inside a transaction
// must not survive that transaction's rollback — undo bumps the store's
// generation counters like any mutation.
func TestAbortInvalidatesRetrieveCache(t *testing.T) {
	c := newController(t)
	if _, err := c.Exec(insertX(5)); err != nil {
		t.Fatal(err)
	}

	tx := c.Txns().Begin()
	tctx := txn.NewContext(context.Background(), tx)
	if _, err := c.ExecCtx(tctx, abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(5)}),
		abdl.Modifier{Attr: "x", Val: abdm.Int(6)})); err != nil {
		t.Fatal(err)
	}
	// Prime the result cache with post-update state, twice so the second
	// read is served from cache while the transaction is still open.
	for i := 0; i < 2; i++ {
		res, err := c.ExecCtx(tctx, retrieveX(5))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 0 {
			t.Fatalf("in-txn read %d: x=5 visible after update", i)
		}
	}
	if err := c.Txns().Abort(tx); err != nil {
		t.Fatal(err)
	}

	res, err := c.Exec(retrieveX(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("post-abort read served stale cache: %d records with x=5, want 1", len(res.Records))
	}
	if res2, _ := c.Exec(retrieveX(6)); len(res2.Records) != 0 {
		t.Fatalf("aborted update visible: %d records with x=6", len(res2.Records))
	}
}

// TestExplicitTxnJournalsOnceAtCommit: a multi-statement transaction reaches
// the journal only at COMMIT, as one framed batch written with one flush.
func TestExplicitTxnJournalsOnceAtCommit(t *testing.T) {
	c := newController(t)
	journal := &flushCounter{}
	c.AttachJournal(journal)

	tx := c.Txns().Begin()
	tctx := txn.NewContext(context.Background(), tx)
	for v := int64(1); v <= 3; v++ {
		if _, err := c.ExecCtx(tctx, insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if journal.Len() != 0 {
		t.Fatalf("journal has %d bytes before commit, want 0 (redo buffers until COMMIT)", journal.Len())
	}
	if err := c.Txns().Commit(tx); err != nil {
		t.Fatal(err)
	}
	if journal.writes != 1 {
		t.Fatalf("commit wrote the journal %d times, want one flush", journal.writes)
	}

	c2 := newController(t)
	if n, err := c2.RecoverJournal(&journal.Buffer); err != nil || n != 3 {
		t.Fatalf("recover: n=%d err=%v, want 3, nil", n, err)
	}
}

// flushCounter counts the journal's physical writes. The controller flushes
// its buffered journal once per commit batch, so each Write is one flush.
type flushCounter struct {
	bytes.Buffer
	writes int
}

func (w *flushCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestJournalFlushesPerCommit prices the journal in flushes: auto-commit
// pays at least one per statement, and concurrent committers share the group
// commit's flushes — never more flushes than commits — while recovery
// restores every committed statement.
func TestJournalFlushesPerCommit(t *testing.T) {
	const stmts = 64

	auto := &flushCounter{}
	c := newController(t)
	c.AttachJournal(auto)
	for v := int64(0); v < stmts; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	if auto.writes < stmts {
		t.Errorf("auto-commit: %d flushes for %d statements, want at least one each", auto.writes, stmts)
	}

	const workers, each = 8, 16
	grp := &flushCounter{}
	c = newController(t)
	c.AttachJournal(grp)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tx := c.Txns().Begin()
				if _, err := c.ExecCtx(txn.NewContext(context.Background(), tx), insertX(int64(w*each+i))); err != nil {
					t.Error(err)
					return
				}
				if err := c.Txns().Commit(tx); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if commits := int(c.Txns().Stats().Commits); grp.writes > commits {
		t.Errorf("%d flushes for %d commits", grp.writes, commits)
	}
	c2 := newController(t)
	if n, err := c2.RecoverJournal(bytes.NewReader(grp.Bytes())); err != nil || n != workers*each {
		t.Fatalf("recover: n=%d err=%v, want %d, nil", n, err, workers*each)
	}
	for v := int64(0); v < workers*each; v++ {
		if n := countX(t, c2, v); n != 1 {
			t.Fatalf("x=%d recovered %d times, want 1", v, n)
		}
	}
}
