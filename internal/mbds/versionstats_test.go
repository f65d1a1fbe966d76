package mbds

import (
	"fmt"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

// totalVersions sums the MVCC version footprint across every local backend
// store.
func totalVersions(t *testing.T, s *System) int {
	t.Helper()
	total := 0
	for pos := 0; pos < s.Backends(); pos++ {
		st := s.Store(pos)
		if st == nil {
			t.Fatalf("backend %d has no local store", pos)
		}
		v, _ := st.VersionStats()
		total += v
	}
	return total
}

// TestVersionStatsExactAcrossMigrateFailoverGC tracks the exact systemwide
// version count through the full elastic lifecycle: replicated inserts and
// updates, a migration onto a joined backend, a failover that re-homes the
// lost backend's keys from the surviving copies (whose imports must carry
// whole chains, not just live records), and finally a GC watermark pass.
// At every stage the count must equal the arithmetic of the workload — any
// drift means a migration dropped or duplicated history.
func TestVersionStatsExactAcrossMigrateFailoverGC(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Replicas = 1
	s, err := New(testDir(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)

	// 20 records, 2 copies each: one committed version per copy.
	const records, copies = 20, 2
	loadEmployees(t, s, records)
	base := records * copies
	if got := totalVersions(t, s); got != base {
		t.Fatalf("versions after load = %d, want %d", got, base)
	}

	// Update 5 records in one transaction committed at epoch 10: each copy
	// of each updated record gains a version.
	const updated = 5
	for i := 0; i < updated; i++ {
		up := abdl.NewUpdate(abdm.And(
			abdm.Predicate{Attr: "name", Op: abdm.OpEq, Val: abdm.String(fmt.Sprintf("emp%04d", i))}),
			abdl.Modifier{Attr: "salary", Val: abdm.Int(99999)})
		up.TxnID = 101
		if _, err := s.Exec(up); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec(&abdl.Request{Kind: abdl.MvccCommit, TxnID: 101, MvccEpoch: 10}); err != nil {
		t.Fatal(err)
	}
	withHistory := base + updated*copies
	if got := totalVersions(t, s); got != withHistory {
		t.Fatalf("versions after updates = %d, want %d", got, withHistory)
	}

	// Migrate: a joined backend takes the keys the grown view assigns it.
	// Chains move wholesale, so the count is invariant.
	if _, err := s.AddBackend(); err != nil {
		t.Fatal(err)
	}
	if got := totalVersions(t, s); got != withHistory {
		t.Fatalf("versions after the join = %d, want %d (migration dropped or duplicated history)", got, withHistory)
	}

	// Failover: remove a backend; the surviving copies restore the copy
	// count. The re-imported copies must carry each record's whole chain.
	if err := s.RemoveBackend(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Len(); got != records*copies {
		t.Fatalf("copies after failover = %d, want %d", got, records*copies)
	}
	if got := totalVersions(t, s); got != withHistory {
		t.Fatalf("versions after failover = %d, want %d (re-imported chains truncated or inflated)", got, withHistory)
	}
	checkExact(t, s, records)

	// GC past the update epoch: exactly the superseded versions fall out —
	// one stale version per copy of each updated record, nothing else.
	if _, err := s.Exec(&abdl.Request{Kind: abdl.MvccGC, MvccEpoch: 11}); err != nil {
		t.Fatal(err)
	}
	if got := totalVersions(t, s); got != base {
		t.Fatalf("versions after GC = %d, want %d (GC count off by %d)", got, base, got-base)
	}
	checkExact(t, s, records)
}
