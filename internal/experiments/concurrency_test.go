package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/cdc"
	"mlds/internal/core"
	"mlds/internal/kc"
	"mlds/internal/mbds"
	"mlds/internal/txn"
)

// These tests keep the correctness half of the retired E14, E18 and
// transaction-contention reports as end-to-end checks through the kernel
// controller and core sessions. Their wall-clock readings are not asserted:
// throughput and latency are measured by the rig, not by one-shot loops.

// counterKernel builds a kernel controller over nFiles files f0..f{n-1},
// each holding one int attribute x.
func counterKernel(t *testing.T, nFiles int) *kc.Controller {
	t.Helper()
	dir := abdm.NewDirectory()
	if err := dir.DefineAttr("x", abdm.KindInt); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nFiles; i++ {
		if err := dir.DefineFile(fmt.Sprintf("f%d", i), []string{"x"}); err != nil {
			t.Fatal(err)
		}
	}
	sys, err := mbds.New(dir, mbds.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return kc.New(sys)
}

func inFile(i int) abdm.Query {
	return abdm.And(abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String(fmt.Sprintf("f%d", i))})
}

// TestE14_SnapshotReads runs readers against writers that increment every
// counter file per transaction, once with locking readers and once with
// MVCC snapshot readers: no read transaction may see counters out of step,
// the snapshot readers must complete reads, and no update may be lost.
func TestE14_SnapshotReads(t *testing.T) {
	const files, readers, writers, rounds = 4, 4, 2, 20
	for _, snapshot := range []bool{false, true} {
		c := counterKernel(t, files)
		readAll := func(ctx context.Context) ([]int64, error) {
			vals := make([]int64, files)
			for i := range vals {
				res, err := c.ExecCtx(ctx, abdl.NewRetrieve(inFile(i), "x"))
				if err != nil {
					return nil, err
				}
				if len(res.Records) != 1 {
					return nil, fmt.Errorf("file f%d: %d records", i, len(res.Records))
				}
				v, _ := res.Records[0].Rec.Get("x")
				vals[i] = v.AsInt()
			}
			return vals, nil
		}
		for i := 0; i < files; i++ {
			rec := abdm.NewRecord(fmt.Sprintf("f%d", i), abdm.Keyword{Attr: "x", Val: abdm.Int(0)})
			if _, err := c.Exec(abdl.NewInsert(rec)); err != nil {
				t.Fatal(err)
			}
		}

		var reads, anomalies atomic.Int64
		var done atomic.Bool
		var werr atomic.Value
		var wgR, wgW sync.WaitGroup
		for r := 0; r < readers; r++ {
			wgR.Add(1)
			go func() {
				defer wgR.Done()
				for !done.Load() {
					var tx *txn.Txn
					if snapshot {
						tx = c.Txns().BeginSnapshot()
					} else {
						tx = c.Txns().Begin()
					}
					vals, err := readAll(txn.NewContext(context.Background(), tx))
					if err != nil {
						var ae *txn.AbortedError
						if errors.As(err, &ae) {
							continue
						}
						werr.Store(err)
						return
					}
					if err := c.Txns().Commit(tx); err != nil {
						werr.Store(err)
						return
					}
					for _, v := range vals {
						if v != vals[0] {
							anomalies.Add(1)
							break
						}
					}
					reads.Add(1)
				}
			}()
		}
		for w := 0; w < writers; w++ {
			wgW.Add(1)
			go func(seed int64) {
				defer wgW.Done()
				rng := rand.New(rand.NewSource(seed))
				for round := 0; round < rounds; round++ {
					order := rng.Perm(files)
					for {
						err := func() error {
							tx := c.Txns().Begin()
							ctx := txn.NewContext(context.Background(), tx)
							for _, i := range order {
								res, err := c.ExecCtx(ctx, abdl.NewRetrieve(inFile(i), "x"))
								if err != nil {
									return err
								}
								v, _ := res.Records[0].Rec.Get("x")
								up := abdl.NewUpdate(inFile(i), abdl.Modifier{Attr: "x", Val: abdm.Int(v.AsInt() + 1)})
								if _, err := c.ExecCtx(ctx, up); err != nil {
									return err
								}
							}
							return c.Txns().Commit(tx)
						}()
						if err == nil {
							break
						}
						var ae *txn.AbortedError
						if !errors.As(err, &ae) {
							werr.Store(err)
							return
						}
					}
				}
			}(int64(100 + w))
		}
		wgW.Wait()
		done.Store(true)
		wgR.Wait()
		if err, _ := werr.Load().(error); err != nil {
			t.Fatalf("snapshot=%v: %v", snapshot, err)
		}
		if n := anomalies.Load(); n != 0 {
			t.Errorf("snapshot=%v: %d read transactions saw a torn state", snapshot, n)
		}
		if snapshot && reads.Load() == 0 {
			t.Error("snapshot readers completed no read transaction")
		}
		finals, err := readAll(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range finals {
			if v != writers*rounds {
				t.Errorf("snapshot=%v: counter f%d = %d, want %d: updates lost", snapshot, i, v, writers*rounds)
			}
		}
	}
}

// TestTxnContention runs read-modify-write transactions through core ABDL
// sessions, every operation on one shared hot record: its final balance
// must equal the committed increments (no lost updates).
func TestTxnContention(t *testing.T) {
	const sessions, txnsPer, opsPer = 4, 6, 2
	sys := core.NewSystem(core.Config{Kernel: mbds.DefaultConfig(2)})
	defer sys.Close()
	db, err := sys.CreateRelational("txnbench", "CREATE TABLE acct (owner INTEGER, bal INTEGER);")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.ExecABDL("INSERT (<FILE, acct>, <owner, -1>, <bal, 0>)"); err != nil {
		t.Fatal(err)
	}
	base := db.Ctrl.Txns().Stats()

	bump := func(sess core.Session) error {
		out, err := sess.Execute("RETRIEVE ((FILE = acct) AND (owner = -1)) (bal)")
		if err != nil {
			return err
		}
		if len(out.Kernel.Records) != 1 {
			return fmt.Errorf("hot record: %d records", len(out.Kernel.Records))
		}
		bal, _ := out.Kernel.Records[0].Rec.Get("bal")
		_, err = sess.Execute(fmt.Sprintf("UPDATE ((FILE = acct) AND (owner = -1)) (bal = %d)", bal.AsInt()+1))
		return err
	}

	var committed atomic.Int64
	var wg sync.WaitGroup
	var werr atomic.Value
	for i := 0; i < sessions; i++ {
		sess, err := sys.Open("txnbench", "abdl")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sess.Close()
		next:
			for n := 0; n < txnsPer; n++ {
				if err := sess.Begin(); err != nil {
					werr.Store(err)
					return
				}
				for o := 0; o < opsPer; o++ {
					if err := bump(sess); err != nil {
						var ae *txn.AbortedError
						if errors.As(err, &ae) {
							continue next // the manager already rolled it back
						}
						werr.Store(err)
						return
					}
				}
				if err := sess.Commit(); err != nil {
					werr.Store(err)
					return
				}
				committed.Add(opsPer)
			}
		}()
	}
	wg.Wait()
	if err, _ := werr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if commits := db.Ctrl.Txns().Stats().Commits - base.Commits; commits == 0 {
		t.Fatal("no transaction committed")
	}
	out, err := db.ExecABDL("RETRIEVE ((FILE = acct) AND (owner = -1)) (bal)")
	if err != nil {
		t.Fatal(err)
	}
	if bal, _ := out.Records[0].Rec.Get("bal"); bal.AsInt() != committed.Load() {
		t.Errorf("hot balance %d, want %d committed increments: updates lost", bal.AsInt(), committed.Load())
	}
}

// journalledKernel builds a two-backend journalled controller over f(x, y),
// the full change-capture configuration.
func journalledKernel(t *testing.T) *kc.Controller {
	t.Helper()
	d := abdm.NewDirectory()
	for _, attr := range []string{"x", "y"} {
		if err := d.DefineAttr(attr, abdm.KindInt); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.DefineFile("f", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	sys, err := mbds.New(d, mbds.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	c := kc.New(sys)
	jf, err := kc.OpenJournalFile(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jf.Close() })
	if err := c.AttachJournalFile(jf); err != nil {
		t.Fatal(err)
	}
	return c
}

func insertXY(x int64) *abdl.Request {
	return abdl.NewInsert(abdm.NewRecord("f",
		abdm.Keyword{Attr: "x", Val: abdm.Int(x)},
		abdm.Keyword{Attr: "y", Val: abdm.Int(x % 7)}))
}

func whereX(x int64) abdm.Query {
	return abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")},
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(x)})
}

// TestE18_ChangeCapture checks both change-capture claims on a journalled
// controller: a live watch delivers every commit exactly once, and after a
// mixed insert/update/delete workload a materialized view equals a full
// recomputation of its query.
func TestE18_ChangeCapture(t *testing.T) {
	const commits = 200
	c := journalledKernel(t)
	def, err := cdc.ParseQuery("WATCH SELECT x, y FROM f WHERE x >= 0")
	if err != nil {
		t.Fatal(err)
	}
	w, err := cdc.Open(c, def, cdc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int64]int, commits)
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		n := 0
		for ch := range w.C {
			if ch.Op != cdc.OpInsert && ch.Op != cdc.OpLoad {
				continue
			}
			v, _ := ch.Rec.Get("x")
			seen[v.AsInt()]++
			if n++; n == commits {
				return
			}
		}
	}()
	for i := int64(1); i <= commits; i++ {
		if _, err := c.Exec(insertXY(i)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-delivered:
	case <-time.After(30 * time.Second):
		t.Fatalf("watch delivered too few of %d commits in 30s", commits)
	}
	w.Close()
	for i := int64(1); i <= commits; i++ {
		if seen[i] != 1 {
			t.Errorf("commit x=%d delivered %d times, want once", i, seen[i])
		}
	}

	const inserts, updates, deletes, threshold = 400, 100, 50, 250
	c2 := journalledKernel(t)
	vdef, err := cdc.ParseQuery(fmt.Sprintf("SELECT x, y FROM f WHERE x >= %d", threshold))
	if err != nil {
		t.Fatal(err)
	}
	view, err := cdc.OpenView(c2, "wellpaid", vdef, cdc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer view.Close()
	<-view.Ready()
	for i := int64(1); i <= inserts; i++ {
		if _, err := c2.Exec(insertXY(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Lift sub-threshold records across the predicate (membership entry).
	for i := int64(1); i <= updates; i++ {
		if _, err := c2.Exec(abdl.NewUpdate(whereX(i), abdl.Modifier{Attr: "x", Val: abdm.Int(i + 2000)})); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(threshold); i < threshold+deletes; i++ {
		if _, err := c2.Exec(abdl.NewDelete(whereX(i))); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := view.WaitCaughtUp(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := c2.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")},
		abdm.Predicate{Attr: "x", Op: abdm.OpGe, Val: abdm.Int(threshold)}), "x", "y"))
	if err != nil {
		t.Fatal(err)
	}
	var want, got []int64
	for _, sr := range res.Records {
		v, _ := sr.Rec.Get("x")
		want = append(want, v.AsInt())
	}
	for _, row := range view.Rows() {
		v, _ := row.Rec.Get("x")
		got = append(got, v.AsInt())
	}
	sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("view rows (%d) differ from recompute (%d):\nview:      %v\nrecompute: %v", len(got), len(want), got, want)
	}
	if len(want) != inserts-threshold+1-deletes+updates {
		t.Errorf("recompute holds %d rows, want %d", len(want), inserts-threshold+1-deletes+updates)
	}
}
