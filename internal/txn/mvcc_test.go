package txn

import (
	"context"
	"errors"
	"testing"
	"time"

	"mlds/internal/abdl"
)

// TestSnapshotIgnoresLaterCommits: a snapshot pinned before a commit keeps
// reading the pre-commit state; a snapshot pinned after sees the new state.
func TestSnapshotIgnoresLaterCommits(t *testing.T) {
	m, _ := newManager(t, Config{})
	ctx := context.Background()

	tx := m.Begin()
	if _, _, err := m.Exec(ctx, tx, insert("f", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}

	old := m.BeginSnapshot()

	tx = m.Begin()
	if _, _, err := m.Exec(ctx, tx, update(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}

	res, _, err := m.Exec(ctx, old, retrieveEq(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("old snapshot lost x=1: %d records", len(res.Records))
	}
	res, _, err = m.Exec(ctx, old, retrieveEq(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatalf("old snapshot sees the later commit: %d records", len(res.Records))
	}
	if err := m.Commit(old); err != nil {
		t.Fatal(err)
	}

	fresh := m.BeginSnapshot()
	res, _, err = m.Exec(ctx, fresh, retrieveEq(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("fresh snapshot misses the commit: %d records", len(res.Records))
	}
	if err := m.Commit(fresh); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotRejectsMutations: every mutation kind fails with ErrReadOnly,
// and the transaction stays usable.
func TestSnapshotRejectsMutations(t *testing.T) {
	m, _ := newManager(t, Config{})
	ctx := context.Background()
	tx := m.BeginSnapshot()
	if !tx.ReadOnly() {
		t.Fatal("BeginSnapshot transaction not read-only")
	}
	if _, _, err := m.Exec(ctx, tx, insert("f", 1)); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("insert in snapshot: err=%v, want ErrReadOnly", err)
	}
	for _, req := range []*abdl.Request{update(1, 2), abdl.NewDelete(retrieveEq(1).Query)} {
		if _, _, err := m.Exec(ctx, tx, req); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%v in snapshot: err=%v, want ErrReadOnly", req.Kind, err)
		}
	}
	// The statement failed; the snapshot itself is still usable.
	if _, _, err := m.Exec(ctx, tx, retrieveEq(1)); err != nil {
		t.Fatalf("snapshot unusable after rejected mutation: %v", err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSkipsLockTable: a snapshot read completes while a writer holds
// an exclusive lock on the file — and does not see the uncommitted write.
func TestSnapshotSkipsLockTable(t *testing.T) {
	m, _ := newManager(t, Config{LockTimeout: 50 * time.Millisecond})
	ctx := context.Background()

	tx := m.Begin()
	if _, _, err := m.Exec(ctx, tx, insert("f", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}

	writer := m.Begin()
	if _, _, err := m.Exec(ctx, writer, update(1, 9)); err != nil {
		t.Fatal(err)
	}
	// The writer holds X on "f". A 2PL reader would block and time out; the
	// snapshot reads through immediately.
	snap := m.BeginSnapshot()
	done := make(chan error, 1)
	go func() {
		res, _, err := m.Exec(ctx, snap, retrieveEq(1))
		if err == nil && len(res.Records) != 1 {
			err = errors.New("snapshot does not see committed x=1")
		}
		if err == nil {
			if r2, _, e2 := m.Exec(ctx, snap, retrieveEq(9)); e2 != nil {
				err = e2
			} else if len(r2.Records) != 0 {
				err = errors.New("snapshot sees uncommitted x=9")
			}
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("snapshot read blocked behind a writer lock")
	}
	m.Commit(snap)
	if err := m.Commit(writer); err != nil {
		t.Fatal(err)
	}
}

// TestAbortedWritesNeverVisible: an aborted transaction's versions are
// discarded; no later snapshot can observe them.
func TestAbortedWritesNeverVisible(t *testing.T) {
	m, _ := newManager(t, Config{})
	ctx := context.Background()

	tx := m.Begin()
	if _, _, err := m.Exec(ctx, tx, insert("f", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}

	bad := m.Begin()
	if _, _, err := m.Exec(ctx, bad, update(1, 666)); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(bad); err != nil {
		t.Fatal(err)
	}

	// Advance the clock past the abort with another commit.
	tx = m.Begin()
	if _, _, err := m.Exec(ctx, tx, insert("g", 5)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}

	snap := m.BeginSnapshot()
	res, _, err := m.Exec(ctx, snap, retrieveEq(666))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatalf("aborted write visible to snapshot: %d records", len(res.Records))
	}
	res, _, err = m.Exec(ctx, snap, retrieveEq(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("pre-abort state lost: %d records", len(res.Records))
	}
	m.Commit(snap)
}

// TestSnapshotWatermarkBlocksGC: versions a live snapshot still needs
// survive GC; once the snapshot ends they are reclaimed.
func TestSnapshotWatermarkBlocksGC(t *testing.T) {
	m, sys := newManager(t, Config{})
	ctx := context.Background()

	tx := m.Begin()
	if _, _, err := m.Exec(ctx, tx, insert("f", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}

	pinned := m.BeginSnapshot()

	// Supersede x=1 twice; the pinned snapshot still needs the original.
	for _, v := range []int64{2, 3} {
		tx := m.Begin()
		if _, _, err := m.Exec(ctx, tx, update(v-1, v)); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}

	res, _, err := m.Exec(ctx, pinned, retrieveEq(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("pinned snapshot lost its version: %d records", len(res.Records))
	}

	if err := m.Commit(pinned); err != nil {
		t.Fatal(err)
	}
	// Ending the snapshot advanced the watermark and ran GC: the two
	// superseded versions (x=1, x=2) are gone from every backend.
	st := m.MVCCStats()
	if st.GCPruned == 0 {
		t.Fatalf("GC pruned nothing after snapshot ended: %+v", st)
	}
	if st.LiveSnapshots != 0 {
		t.Fatalf("snapshot still registered: %+v", st)
	}
	_ = sys

	// The live state is intact.
	if n := countEq(t, m, 3); n != 1 {
		t.Fatalf("live x=3 count=%d, want 1", n)
	}
}

// TestSnapshotStatsAndMetrics: the mlds_mvcc counters and MVCCStats track
// snapshot reads, the epoch, and live snapshots.
func TestSnapshotStatsAndMetrics(t *testing.T) {
	m, _ := newManager(t, Config{})
	ctx := context.Background()

	st0 := m.MVCCStats()
	if st0.Epoch == 0 {
		t.Fatal("MVCC clock not initialised")
	}

	tx := m.Begin()
	if _, _, err := m.Exec(ctx, tx, insert("f", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if st := m.MVCCStats(); st.Epoch != st0.Epoch+1 {
		t.Fatalf("epoch after one commit = %d, want %d", st.Epoch, st0.Epoch+1)
	}

	snap := m.BeginSnapshot()
	if st := m.MVCCStats(); st.LiveSnapshots != 1 {
		t.Fatalf("live snapshots = %d, want 1", st.LiveSnapshots)
	}
	for _, v := range []int64{1, 1, 2} {
		if _, _, err := m.Exec(ctx, snap, retrieveEq(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Abort(snap); err != nil {
		t.Fatal(err)
	}
	st := m.MVCCStats()
	if st.SnapshotReads != 3 {
		t.Fatalf("snapshot reads = %d, want 3", st.SnapshotReads)
	}
	if st.LiveSnapshots != 0 {
		t.Fatalf("live snapshots after rollback = %d, want 0", st.LiveSnapshots)
	}
}
