package kc

import (
	"context"
	"sync"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/mbds"
	"mlds/internal/txn"
)

// TestMembershipChaos drives random joins, rebalances, drains and outright
// backend kills under a concurrent mixed read/write/transaction workload and
// asserts the elastic-membership contract: zero failed requests, reads that
// match the committed-write oracle exactly (no lost committed insert, no
// aborted insert resurrected, no duplicate), and a restored replication
// factor once the churn stops. Run under -race it doubles as the membership
// data-race suite.
func TestMembershipChaos(t *testing.T) {
	dir := abdm.NewDirectory()
	if err := dir.DefineAttr("x", abdm.KindInt); err != nil {
		t.Fatal(err)
	}
	if err := dir.DefineFile("f", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	cfg := mbds.DefaultConfig(3)
	cfg.Replicas = 1
	cfg.FaultInjection = true
	cfg.BreakerThreshold = 2
	cfg.ProbePeriod = time.Hour // a killed backend stays down until failover
	cfg.FailoverAfter = 60 * time.Millisecond
	cfg.FailoverCheck = 15 * time.Millisecond
	sys, err := mbds.New(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	c := New(sys)

	// Independent oracle: the group-commit leader publishes every committed
	// redo log after flush and stamp, so this stream is exactly the set of
	// writes the system acknowledged as durable.
	sub := c.SubscribeCommits(1 << 16)
	defer sub.Close()

	const workers = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	type workerState struct {
		committed []int64 // x values the worker saw acknowledged
		failures  []error
	}
	states := make([]workerState, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &states[w]
			next := int64(w) * 1_000_000
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 5 {
				case 0, 1: // auto-commit insert
					next++
					if _, err := c.Exec(insertX(next)); err != nil {
						st.failures = append(st.failures, err)
						return
					}
					st.committed = append(st.committed, next)
				case 2: // explicit transaction: two inserts, committed
					tx := c.Txns().Begin()
					ctx := txn.NewContext(context.Background(), tx)
					a, b := next+1, next+2
					next += 2
					if _, err := c.ExecCtx(ctx, insertX(a)); err != nil {
						st.failures = append(st.failures, err)
						return
					}
					if _, err := c.ExecCtx(ctx, insertX(b)); err != nil {
						st.failures = append(st.failures, err)
						return
					}
					if err := c.Txns().Commit(tx); err != nil {
						st.failures = append(st.failures, err)
						return
					}
					st.committed = append(st.committed, a, b)
				case 3: // aborted transaction: its insert must vanish
					tx := c.Txns().Begin()
					ctx := txn.NewContext(context.Background(), tx)
					next++
					if _, err := c.ExecCtx(ctx, insertX(next)); err != nil {
						st.failures = append(st.failures, err)
						return
					}
					if err := c.Txns().Abort(tx); err != nil {
						st.failures = append(st.failures, err)
						return
					}
				case 4: // read
					if _, err := c.Exec(retrieveX(next)); err != nil {
						st.failures = append(st.failures, err)
						return
					}
				}
			}
		}(w)
	}

	// The chaos script: grow, rebalance, drain, kill — serialized, with the
	// fleet always recovering to at least two live backends.
	waitBackends := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for sys.Backends() != n {
			if time.Now().After(deadline) {
				t.Fatalf("fleet stuck at %d backends, want %d (health %v)",
					sys.Backends(), n, sys.Health())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for round := 0; round < 2; round++ {
		if _, err := sys.AddBackend(); err != nil {
			t.Fatal(err)
		}
		if err := sys.DrainBackend(1); err != nil {
			t.Fatal(err)
		}
		// Kill a backend outright; the failover monitor must remove it.
		n := sys.Backends()
		sys.Fault(n - 1).Fail(true)
		// A few broadcasts trip the breaker (reads tolerate the loss).
		for i := 0; i < 4; i++ {
			_, _ = c.Exec(retrieveX(-1))
			time.Sleep(5 * time.Millisecond)
		}
		waitBackends(n - 1)
		if _, err := sys.AddBackend(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	for w := range states {
		if len(states[w].failures) > 0 {
			t.Fatalf("worker %d: %d failed requests, first: %v",
				w, len(states[w].failures), states[w].failures[0])
		}
	}

	// Collect the subscription's view of committed inserts.
	sub.Close()
	oracle := make(map[int64]bool)
	for rec := range sub.C {
		for _, e := range rec.Entries {
			if e.Req.Kind != abdl.Insert {
				continue
			}
			if v, ok := e.Req.Record.Get("x"); ok {
				oracle[v.AsInt()] = true
			}
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("commit oracle dropped %d records; buffer too small for the workload", sub.Dropped())
	}
	acked := make(map[int64]bool)
	for w := range states {
		for _, v := range states[w].committed {
			acked[v] = true
		}
	}
	for v := range acked {
		if !oracle[v] {
			t.Fatalf("value %d acknowledged to a worker but never published as committed", v)
		}
	}

	// Exactness: the surviving fleet holds every committed insert exactly
	// once and nothing else.
	res, err := c.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[int64]int)
	for _, sr := range res.Records {
		v, _ := sr.Rec.Get("x")
		got[v.AsInt()]++
	}
	for v := range acked {
		switch got[v] {
		case 1:
		case 0:
			t.Errorf("committed value %d lost", v)
		default:
			t.Errorf("committed value %d appears %d times", v, got[v])
		}
	}
	for v, n := range got {
		if !acked[v] {
			t.Errorf("uncommitted value %d present (%d copies) — aborted insert resurrected?", v, n)
		}
	}
	if t.Failed() {
		t.Fatalf("exactness violated: %d committed, %d present, %d backends %v",
			len(acked), len(got), sys.Backends(), sys.PartitionSizes())
	}

	// Replica restoration: once churn settles (a removal drops its strays
	// just after the view flips), every record has exactly Replicas+1
	// copies.
	want := 2 * len(acked)
	deadline := time.Now().Add(15 * time.Second)
	for sys.Len() != want {
		if time.Now().After(deadline) {
			t.Fatalf("replication factor not restored: %d copies of %d records, want %d (sizes %v)",
				sys.Len(), len(acked), want, sys.PartitionSizes())
		}
		time.Sleep(20 * time.Millisecond)
	}
}
