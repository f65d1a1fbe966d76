package mbdsnet

import (
	"fmt"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
)

// TestReconnectBackoffDoubleRestart: a backend daemon restarted twice
// mid-stream is reached again by the controller's retry policy — each
// attempt redials once, the backoff doubles between attempts, and the
// caller never sees a failure as long as the restart lands within
// MaxRetries attempts.
func TestReconnectBackoffDoubleRestart(t *testing.T) {
	store := kdb.NewStore(testDir(t).Clone())
	srv, err := Listen("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cfg := mbds.DefaultConfig(1)
	cfg.MaxRetries = 8
	cfg.RetryBackoff = 2 * time.Millisecond // 2 ms doubling: 510 ms over 8 retries
	cfg.BreakerThreshold = 0                // the retries, not the breaker, are under test
	sys := oneBackend(t, cfg, addr)
	if _, err := sys.Exec(abdl.NewInsert(employee("stable"))); err != nil {
		t.Fatal(err)
	}

	for restart := 1; restart <= 2; restart++ {
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		// The daemon comes back on the same address only after a beat: the
		// first attempts must fail, back off, and retry.
		restarted := make(chan *BackendServer, 1)
		go func() {
			time.Sleep(30 * time.Millisecond)
			for i := 0; i < 100; i++ {
				s2, err := Listen(addr, store)
				if err == nil {
					restarted <- s2
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
			restarted <- nil
		}()
		res, err := sys.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
		if err != nil {
			t.Fatalf("restart %d: retrieve not retried across restart: %v", restart, err)
		}
		if len(res.Records) != 1 {
			t.Fatalf("restart %d: retrieve = %d records, want 1", restart, len(res.Records))
		}
		srv = <-restarted
		if srv == nil {
			t.Fatalf("restart %d: could not rebind %s", restart, addr)
		}
	}
	t.Cleanup(func() { _ = srv.Close() })
	if _, err := sys.Exec(abdl.NewInsert(employee("after"))); err != nil {
		t.Fatalf("insert on recovered stream: %v", err)
	}
	if store.Len() != 2 {
		t.Fatalf("store has %d records, want 2", store.Len())
	}
}

// TestRemoteMigrationVerbs: the export/import/drop migration verbs round-trip
// over the wire, pending versions included.
func TestRemoteMigrationVerbs(t *testing.T) {
	dir := testDir(t)
	src := kdb.NewStore(dir.Clone())
	dst := kdb.NewStore(dir.Clone())
	for i := 0; i < 5; i++ {
		if _, err := src.Insert(employee(fmt.Sprintf("mig%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	pend := abdl.NewInsert(employee("pending"))
	pend.TxnID = 42
	if _, err := src.Exec(pend); err != nil {
		t.Fatal(err)
	}

	srvSrc, err := Listen("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srvSrc.Close() })
	srvDst, err := Listen("127.0.0.1:0", dst)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srvDst.Close() })
	rbSrc, err := Dial(srvSrc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rbSrc.Close() })
	rbDst, err := Dial(srvDst.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rbDst.Close() })

	// Page the whole partition over the wire.
	var all []kdb.MigRecord
	var after abdm.RecordID
	for {
		recs, next, epoch, err := rbSrc.ExportSince(0, after, 2)
		if err != nil {
			t.Fatal(err)
		}
		if epoch == 0 {
			t.Fatal("export reported epoch 0")
		}
		all = append(all, recs...)
		if next == 0 {
			break
		}
		after = next
	}
	if len(all) != 6 {
		t.Fatalf("exported %d records over the wire, want 6", len(all))
	}

	n, err := rbDst.ImportPartition(all)
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("imported %d records, want 6", n)
	}
	if dst.Len() != 6 {
		t.Fatalf("dst has %d records, want 6", dst.Len())
	}
	// The imported pending version registered: a later commit finds and
	// stamps it on the destination.
	res, err := dst.Exec(&abdl.Request{Kind: abdl.MvccCommit, TxnID: 42, MvccEpoch: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("commit stamped %d imported pending versions, want 1", res.Count)
	}

	ids := make([]abdm.RecordID, 0, len(all))
	for _, r := range all {
		ids = append(ids, r.ID)
	}
	dropped, err := rbDst.DropRecords(ids)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 6 {
		t.Fatalf("dropped %d records, want 6", dropped)
	}
	if dst.Len() != 0 {
		t.Fatalf("dst has %d records after drop, want 0", dst.Len())
	}
}

// TestRemoteDrain: a controller over TCP backends drains one of them live —
// the migration verbs run over the wire and reads stay exact.
func TestRemoteDrain(t *testing.T) {
	const n = 3
	dir := testDir(t)
	cfg := mbds.DefaultConfig(n)
	cfg.RequestTimeout = time.Second

	var execs []mbds.Executor
	for i := 0; i < n; i++ {
		store := kdb.NewStore(dir.Clone())
		srv, err := Listen("127.0.0.1:0", store)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		rb, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rb.Close() })
		execs = append(execs, rb)
	}
	sys, err := mbds.NewWithExecutors(dir, cfg, execs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	for i := 0; i < 30; i++ {
		if _, err := sys.Exec(abdl.NewInsert(employee(fmt.Sprintf("rd%03d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.DrainBackend(1); err != nil {
		t.Fatal(err)
	}
	if sys.Backends() != 2 {
		t.Fatalf("%d backends after remote drain, want 2", sys.Backends())
	}
	res, err := sys.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 30 {
		t.Fatalf("retrieve after remote drain = %d records, want 30", len(res.Records))
	}
	if got := sys.Len(); got != 30 {
		t.Fatalf("Len = %d after remote drain, want 30", got)
	}
}
