package kc

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
	"mlds/internal/pager"
	"mlds/internal/txn"
)

// TestPagedFleetChaos is the larger-than-RAM chaos suite: a three-partition
// demand-paged fleet behind 4-frame pools takes concurrent writers and a
// live commit-stream watcher while a barrier-checkpoint loop runs, and a
// backend is drained in the middle of it. The contract under all that churn:
//
//   - zero failed requests;
//   - the watcher's committed-insert stream is exactly the set of values
//     writers saw acknowledged, and the fleet holds each exactly once;
//   - the pools stayed tiny while the dataset did not — real eviction
//     pressure on every surviving partition;
//   - after a crash, mounting the survivors at the fleet cut and replaying
//     the shared journal reproduces the exact same set.
//
// Run under -race this doubles as the demand-paging data-race suite.
func TestPagedFleetChaos(t *testing.T) {
	tmp := t.TempDir()
	journalPath := filepath.Join(tmp, "journal.gob")
	dir := abdm.NewDirectory()
	if err := dir.DefineAttr("x", abdm.KindInt); err != nil {
		t.Fatal(err)
	}
	if err := dir.DefineFile("f", []string{"x"}); err != nil {
		t.Fatal(err)
	}

	// Every partition a backed store over its own page file, 4 frames each.
	// Track which page file each store got: the drain will retire one, and
	// recovery mounts only the survivors.
	var (
		openMu  sync.Mutex
		created []*kdb.Store
		pathOf  = map[*kdb.Store]string{}
	)
	tiny := func(opts []kdb.Option) []kdb.Option {
		return append(opts, kdb.WithPageSize(pager.MinPageSize), kdb.WithPoolPages(4))
	}
	cfg := mbds.DefaultConfig(3)
	cfg.StoreOpener = func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		path := filepath.Join(tmp, "part"+itoa(pos)+".pgf")
		st, err := kdb.CreateBacked(path, d, tiny(opts)...)
		if err != nil {
			return nil, err
		}
		openMu.Lock()
		created = append(created, st)
		pathOf[st] = path
		openMu.Unlock()
		return st, nil
	}
	sys, err := mbds.New(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, st := range created {
			st.CloseBacking()
		}
		sys.Close()
	})
	c := New(sys)
	attachJournalFile(t, c, journalPath)

	// The watcher: a live subscriber to the group-commit stream. Its view of
	// committed inserts is the oracle the final states are held against.
	sub := c.SubscribeCommits(1 << 16)
	var (
		oracleMu sync.Mutex
		oracle   = map[int64]bool{}
	)
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		for rec := range sub.C {
			for _, e := range rec.Entries {
				if e.Req.Kind != abdl.Insert {
					continue
				}
				if v, ok := e.Req.Record.Get("x"); ok {
					oracleMu.Lock()
					oracle[v.AsInt()] = true
					oracleMu.Unlock()
				}
			}
		}
	}()

	const workers = 4
	var wg sync.WaitGroup
	stopW := make(chan struct{})
	type workerState struct {
		committed []int64
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
				case <-stopW:
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
				case 2: // explicit transaction, committed
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
				case 3: // aborted transaction: must vanish
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
				case 4: // read while everything churns
					if _, err := c.Exec(retrieveX(next)); err != nil {
						st.failures = append(st.failures, err)
						return
					}
				}
			}
		}(w)
	}

	// The barrier-checkpoint loop: the whole fleet, over and over, while
	// writers write and the drain runs. Membership churn between listing the
	// fleet and fencing it can surface as a begin error; the loop just takes
	// the next lap. The post-drain checkpoint below must succeed for real.
	stopC := make(chan struct{})
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for {
			select {
			case <-stopC:
				return
			default:
			}
			fleet := liveFleet(sys)
			if len(fleet) > 0 {
				_, _ = c.CheckpointFleet(fleet)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// The chaos: drain a partition in the middle of the checkpoint cadence.
	time.Sleep(25 * time.Millisecond)
	if err := sys.DrainBackend(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(25 * time.Millisecond)
	close(stopC)
	<-ckptDone

	// A guaranteed post-drain barrier, then a journal tail behind it.
	survivors := liveFleet(sys)
	if len(survivors) != 2 {
		t.Fatalf("drain left %d live partitions, want 2", len(survivors))
	}
	info, err := c.CheckpointFleet(survivors)
	if err != nil {
		t.Fatalf("post-drain fleet checkpoint: %v", err)
	}
	time.Sleep(15 * time.Millisecond)
	close(stopW)
	wg.Wait()
	sub.Close()
	<-watcherDone
	if sub.Dropped() != 0 {
		t.Fatalf("watcher dropped %d commit records", sub.Dropped())
	}

	for w := range states {
		if len(states[w].failures) > 0 {
			t.Fatalf("worker %d: %d failed requests, first: %v",
				w, len(states[w].failures), states[w].failures[0])
		}
	}
	acked := map[int64]bool{}
	for w := range states {
		for _, v := range states[w].committed {
			acked[v] = true
		}
	}
	oracleMu.Lock()
	for v := range acked {
		if !oracle[v] {
			t.Fatalf("value %d acknowledged to a worker but never reached the watcher", v)
		}
	}
	oracleMu.Unlock()

	assertExactly := func(t *testing.T, res *kdb.Result, label string) {
		t.Helper()
		got := map[int64]int{}
		for _, sr := range res.Records {
			v, _ := sr.Rec.Get("x")
			got[v.AsInt()]++
		}
		for v := range acked {
			if got[v] != 1 {
				t.Errorf("%s: committed value %d present %d times", label, v, got[v])
			}
		}
		for v, n := range got {
			if !acked[v] {
				t.Errorf("%s: uncommitted value %d present (%d copies)", label, v, n)
			}
		}
		if t.Failed() {
			t.Fatalf("%s: exactness violated over %d committed values", label, len(acked))
		}
	}
	res, err := c.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	assertExactly(t, res, "live fleet")

	// Larger than RAM, for real: each survivor's heap dwarfs its pool and
	// the pool paid for it in evictions.
	survivorPaths := make([]string, len(survivors))
	for i, st := range survivors {
		openMu.Lock()
		survivorPaths[i] = pathOf[st]
		openMu.Unlock()
		stats, pages, backed := st.BackingStats()
		if !backed {
			t.Fatalf("survivor %d lost its backing", i)
		}
		if pages <= 4 || stats.Evictions == 0 {
			t.Fatalf("survivor %d: %d pages, %d evictions — no paging pressure", i, pages, stats.Evictions)
		}
	}

	// Crash the whole fleet and recover the survivors at the fleet cut.
	c.DetachJournal()
	sys.Close()
	for _, st := range created {
		st.CloseBacking()
	}

	cut, err := FleetCut(survivorPaths)
	if err != nil {
		t.Fatal(err)
	}
	if cut < info.Meta.Entries {
		t.Fatalf("fleet cut %d behind the post-drain barrier %d", cut, info.Meta.Entries)
	}
	metas := make([]pager.Meta, len(survivorPaths))
	cfg2 := mbds.DefaultConfig(len(survivorPaths))
	cfg2.StoreOpener = func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		st, m, err := kdb.OpenBackedAt(survivorPaths[pos], d, cut, tiny(opts)...)
		metas[pos] = m
		return st, err
	}
	sys2, err := mbds.New(dir, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	c2 := New(sys2)
	t.Cleanup(func() {
		for i := range survivorPaths {
			if st := sys2.Store(i); st != nil {
				st.CloseBacking()
			}
		}
		sys2.Close()
	})
	var maxID uint64
	for _, m := range metas {
		if m.NextID > maxID {
			maxID = m.NextID
		}
	}
	sys2.SeedIDs(maxID)
	jr, err := os.Open(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if _, err := c2.RecoverFleet(jr, cut, metas...); err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	assertExactly(t, res2, "recovered fleet")
}

// liveFleet lists the current live partitions' stores, deduplicated against
// membership churn racing the position scan.
func liveFleet(sys *mbds.System) []*kdb.Store {
	seen := map[*kdb.Store]bool{}
	var out []*kdb.Store
	for pos := 0; pos < sys.Backends(); pos++ {
		if st := sys.Store(pos); st != nil && !seen[st] {
			seen[st] = true
			out = append(out, st)
		}
	}
	return out
}
