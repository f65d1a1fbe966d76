package kc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/mbds"
	"mlds/internal/txn"
)

// Property-based schedule test for the lock manager and MVCC layered on it.
//
// K counter files each hold one record. Every writer transaction increments
// ALL K counters by one, touching the files in a random order — the random
// lock orders produce deadlocks, aborts, and retries, so the schedules the
// test explores include every 2PL recovery path. Snapshot readers run
// concurrently, each pinning a snapshot and reading all K counters (twice).
//
// Invariants checked, over every random schedule:
//
//  1. No lost updates: after the run, every counter equals the number of
//     transactions that committed (strict 2PL serializes the increments).
//  2. Snapshots observe a committed prefix: a committed transaction moves
//     every counter together, so a consistent snapshot must see all K
//     counters EQUAL — any mixed values would be a torn (non-atomic) view.
//  3. Snapshot repeatability: the two reads inside one snapshot agree even
//     while writers commit between them.

const propFiles = 3

func propController(t *testing.T) *Controller {
	t.Helper()
	dir := abdm.NewDirectory()
	if err := dir.DefineAttr("v", abdm.KindInt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < propFiles; i++ {
		if err := dir.DefineFile(fmt.Sprintf("c%d", i), []string{"v"}); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := mbds.New(dir, mbds.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	c := New(sys)
	for i := 0; i < propFiles; i++ {
		file := fmt.Sprintf("c%d", i)
		rec := abdm.NewRecord(file, abdm.Keyword{Attr: "v", Val: abdm.Int(0)})
		if _, err := c.Exec(abdl.NewInsert(rec)); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func fileQuery(i int) abdm.Query {
	return abdm.And(abdm.Predicate{
		Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String(fmt.Sprintf("c%d", i))})
}

// readCounter reads counter i inside the given transaction context.
func readCounter(ctx context.Context, c *Controller, i int) (int64, error) {
	res, err := c.ExecCtx(ctx, abdl.NewRetrieve(fileQuery(i), "v"))
	if err != nil {
		return 0, err
	}
	if len(res.Records) != 1 {
		return 0, fmt.Errorf("counter %d has %d records", i, len(res.Records))
	}
	v, _ := res.Records[0].Rec.Get("v")
	return v.AsInt(), nil
}

// incrementAll runs one writer transaction: read-modify-write every counter,
// in the given file order. Returns a *txn.AbortedError when chosen as a
// deadlock victim.
func incrementAll(c *Controller, order []int) error {
	tx := c.Txns().Begin()
	ctx := txn.NewContext(context.Background(), tx)
	for _, i := range order {
		v, err := readCounter(ctx, c, i)
		if err != nil {
			return err // manager already rolled back on abort
		}
		up := abdl.NewUpdate(fileQuery(i), abdl.Modifier{Attr: "v", Val: abdm.Int(v + 1)})
		if _, err := c.ExecCtx(ctx, up); err != nil {
			return err
		}
	}
	return c.Txns().Commit(tx)
}

func TestPropertyScheduleMVCC(t *testing.T) {
	const writers, rounds, readers = 6, 15, 4
	c := propController(t)

	var commits atomic.Int64
	var stop atomic.Bool
	var wgReaders, wgWriters sync.WaitGroup

	// Snapshot readers: pin, read all counters twice, check both invariants.
	for r := 0; r < readers; r++ {
		wgReaders.Add(1)
		go func(seed int64) {
			defer wgReaders.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				tx := c.Txns().BeginSnapshot()
				ctx := txn.NewContext(context.Background(), tx)
				var first []int64
				torn := false
				for pass := 0; pass < 2; pass++ {
					vals := make([]int64, propFiles)
					for i := range vals {
						v, err := readCounter(ctx, c, i)
						if err != nil {
							t.Errorf("snapshot read: %v", err)
							torn = true
							break
						}
						vals[i] = v
					}
					if torn {
						break
					}
					for _, v := range vals {
						if v != vals[0] {
							t.Errorf("torn snapshot: counters %v are not a committed prefix", vals)
							torn = true
						}
					}
					if pass == 0 {
						first = vals
					} else if !torn && fmt.Sprint(vals) != fmt.Sprint(first) {
						t.Errorf("unrepeatable snapshot: %v then %v", first, vals)
					}
				}
				c.Txns().Commit(tx)
				if torn {
					return
				}
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}(int64(1000 + r))
	}

	// Writers: every transaction increments all counters in a random order,
	// retrying when aborted by deadlock detection or lock timeout.
	for w := 0; w < writers; w++ {
		wgWriters.Add(1)
		go func(seed int64) {
			defer wgWriters.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				order := rng.Perm(propFiles)
				for {
					err := incrementAll(c, order)
					if err == nil {
						commits.Add(1)
						break
					}
					var ae *txn.AbortedError
					if !errors.As(err, &ae) {
						t.Errorf("writer failed outside 2PL recovery: %v", err)
						return
					}
					time.Sleep(time.Duration(rng.Intn(500)) * time.Microsecond)
				}
			}
		}(int64(w))
	}

	wgWriters.Wait()
	stop.Store(true)
	wgReaders.Wait()
	if t.Failed() {
		return
	}

	// Invariant 1: no lost updates.
	want := commits.Load()
	if want != writers*rounds {
		t.Fatalf("committed %d of %d transactions", want, writers*rounds)
	}
	for i := 0; i < propFiles; i++ {
		v, err := readCounter(context.Background(), c, i)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Errorf("counter %d = %d, want %d: updates lost", i, v, want)
		}
	}

	st := c.Txns().MVCCStats()
	if st.SnapshotReads == 0 {
		t.Error("no snapshot reads were exercised")
	}
	t.Logf("commits=%d deadlocks=%d snapshot-reads=%d gc-pruned=%d epoch=%d",
		want, c.Txns().Stats().Deadlocks, st.SnapshotReads, st.GCPruned, st.Epoch)
}
