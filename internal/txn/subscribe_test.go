package txn

import (
	"context"
	"strings"
	"testing"

	"mlds/internal/obs"
)

// TestSubscribeCommits: every committed transaction's redo log is published
// exactly once to every subscriber, aborts publish nothing, and Close is
// idempotent.
func TestSubscribeCommits(t *testing.T) {
	m, _ := newManager(t, Config{})
	a := m.SubscribeCommits(16)
	b := m.SubscribeCommits(16)
	defer b.Close()

	tx := m.Begin()
	if _, _, err := m.Exec(context.Background(), tx, insert("f", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	aborted := m.Begin()
	if _, _, err := m.Exec(context.Background(), aborted, insert("f", 2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Abort(aborted); err != nil {
		t.Fatal(err)
	}

	for _, sub := range []*CommitSub{a, b} {
		rec := <-sub.C
		if rec.ID != tx.ID() || len(rec.Entries) != 1 {
			t.Fatalf("published record = %+v", rec)
		}
		select {
		case extra := <-sub.C:
			t.Fatalf("aborted transaction published: %+v", extra)
		default:
		}
	}
	a.Close()
	a.Close() // idempotent
	if _, ok := <-a.C; ok {
		t.Fatal("C open after Close")
	}
}

// TestSubscribeDroppedMetric: overflowing a subscriber's buffer never blocks
// commits; it counts on the subscription and on the
// mlds_commit_sub_dropped_total counter.
func TestSubscribeDroppedMetric(t *testing.T) {
	reg := obs.NewRegistry()
	m, _ := newManager(t, Config{Metrics: reg, DB: "d"})
	sub := m.SubscribeCommits(1)
	defer sub.Close()

	for v := int64(1); v <= 5; v++ {
		tx := m.Begin()
		if _, _, err := m.Exec(context.Background(), tx, insert("f", v)); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	// Buffer of 1, nothing drained: 4 of the 5 records must drop.
	if got := sub.Dropped(); got != 4 {
		t.Fatalf("Dropped() = %d, want 4", got)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `mlds_commit_sub_dropped_total{db="d"} 4`) {
		t.Fatalf("metric missing or wrong:\n%s", sb.String())
	}
}
