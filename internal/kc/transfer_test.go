package kc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/txn"
)

// Seeded concurrency and recovery property test for record locks, over
// backed stores with the journal attached.
//
// Accounts come in pairs (2p, 2p+1) of file acct, each pair summing to
// xferTotal. Workers run transfers — BEGIN; UPDATE a; UPDATE b; read the
// pair; COMMIT or, at random, ROLLBACK — on a few hot pairs every worker
// shares and on pairs of their own, writing the pair in a random order so
// that transfers on a hot pair deadlock now and then. Readers read pairs in
// locked and in snapshot transactions, and a checkpointer runs
// CheckpointFleet every few commits. Invariants:
//
//  1. every committed read of a pair sums to xferTotal;
//  2. after the run each own pair holds its worker's last committed
//     transfer, and every pair sums to xferTotal;
//  3. crash recovery of a copy of the page files and the journal reproduces
//     the live acct table row for row.
//
// Each seed is a subtest, so a failure names its seed, and
// go test -run 'TestTransfersRecover/seed=N' ./internal/kc replays that
// seed's operation streams (the interleaving is the scheduler's).

const (
	xferTotal     = 1000
	xferHot       = 2 // pairs every worker writes
	xferWorkers   = 4 // each owns xferOwn pairs
	xferOwn       = 3
	xferReaders   = 2
	xferOps       = 40 // transfers per worker, reads per reader
	xferCkptEvery = 10 // commits between fleet checkpoints
	xferBackends  = 2
)

func xferDir(t *testing.T) *abdm.Directory {
	t.Helper()
	dir := abdm.NewDirectory()
	for _, a := range []string{"id", "bal"} {
		if err := dir.DefineAttr(a, abdm.KindInt); err != nil {
			t.Fatal(err)
		}
	}
	if err := dir.DefineFile("acct", []string{"id", "bal"}); err != nil {
		t.Fatal(err)
	}
	return dir
}

func acctFile() abdm.Predicate {
	return abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("acct")}
}

func acctQuery(id int) abdm.Query {
	return abdm.And(acctFile(), abdm.Predicate{Attr: "id", Op: abdm.OpEq, Val: abdm.Int(int64(id))})
}

// pairSum reads both accounts of pair p.
func pairSum(ctx context.Context, c *Controller, p int) (int64, error) {
	var sum int64
	for _, id := range []int{2 * p, 2*p + 1} {
		res, err := c.ExecCtx(ctx, abdl.NewRetrieve(acctQuery(id), abdl.AllAttrs))
		if err != nil {
			return 0, err
		}
		if len(res.Records) != 1 {
			return 0, fmt.Errorf("account %d: %d records", id, len(res.Records))
		}
		v, _ := res.Records[0].Rec.Get("bal")
		sum += v.AsInt()
	}
	return sum, nil
}

// xferRun is one seeded run: the live controller and what it committed.
type xferRun struct {
	t    *testing.T
	seed int64
	c    *Controller
	ckpt chan struct{} // a worker's nudge to the checkpointer
}

// transfer sets pair p to (x, xferTotal-x) in one transaction and commits
// it, or rolls it back when rollback is set. A lock abort (deadlock victim,
// timeout) comes back as *txn.AbortedError for the caller to retry.
func (r *xferRun) transfer(p int, x int64, swap, rollback bool) error {
	m := r.c.Txns()
	tx := m.Begin()
	ctx := txn.NewContext(context.Background(), tx)
	ids := []int{2 * p, 2*p + 1}
	vals := []int64{x, xferTotal - x}
	if swap {
		ids[0], ids[1] = ids[1], ids[0]
		vals[0], vals[1] = vals[1], vals[0]
	}
	for i, id := range ids {
		req := abdl.NewUpdate(acctQuery(id), abdl.Modifier{Attr: "bal", Val: abdm.Int(vals[i])})
		if _, err := r.c.ExecCtx(ctx, req); err != nil {
			m.Abort(tx)
			return err
		}
	}
	sum, err := pairSum(ctx, r.c, p)
	if err != nil {
		m.Abort(tx)
		return err
	}
	if sum != xferTotal {
		r.t.Errorf("seed %d: pair %d sums to %d inside its own transfer", r.seed, p, sum)
	}
	if rollback {
		return m.Abort(tx)
	}
	return m.Commit(tx)
}

// read checks one pair's sum in a locked or a snapshot transaction; only a
// read whose transaction committed counts.
func (r *xferRun) read(p int, snapshot bool) error {
	m := r.c.Txns()
	tx := m.Begin()
	if snapshot {
		tx = m.BeginSnapshot()
	}
	sum, err := pairSum(txn.NewContext(context.Background(), tx), r.c, p)
	if err != nil {
		m.Abort(tx)
		return err
	}
	if err := m.Commit(tx); err != nil {
		return err
	}
	if sum != xferTotal {
		r.t.Errorf("seed %d: committed read of pair %d (snapshot %v) sums to %d", r.seed, p, snapshot, sum)
	}
	return nil
}

// retry runs op until it is not aborted by the lock manager.
func (r *xferRun) retry(what string, op func() error) bool {
	for {
		err := op()
		var ae *txn.AbortedError
		if err == nil {
			return true
		}
		if !errors.As(err, &ae) {
			r.t.Errorf("seed %d: %s: %v", r.seed, what, err)
			return false
		}
	}
}

func (r *xferRun) worker(w int, last map[int]int64) {
	rng := rand.New(rand.NewSource(r.seed*1000 + int64(w)))
	for i := 0; i < xferOps; i++ {
		hot := rng.Intn(4) == 0
		p := xferHot + w + xferWorkers*rng.Intn(xferOwn)
		if hot {
			p = rng.Intn(xferHot)
		}
		x := int64(rng.Intn(xferTotal + 1))
		swap, rollback := rng.Intn(2) == 0, rng.Intn(5) == 0
		if !r.retry(fmt.Sprintf("worker %d transfer %d on pair %d", w, i, p), func() error {
			return r.transfer(p, x, swap, rollback)
		}) {
			return
		}
		if rollback {
			continue
		}
		if !hot {
			last[p] = x
		}
		if i%xferCkptEvery == 0 {
			select {
			case r.ckpt <- struct{}{}:
			default:
			}
		}
	}
}

func (r *xferRun) reader(n int) {
	rng := rand.New(rand.NewSource(r.seed*1000 + 500 + int64(n)))
	pairs := xferHot + xferWorkers*xferOwn
	for i := 0; i < xferOps; i++ {
		p, snapshot := rng.Intn(pairs), rng.Intn(2) == 0
		if !r.retry(fmt.Sprintf("reader %d read of pair %d", n, p), func() error { return r.read(p, snapshot) }) {
			return
		}
	}
}

// acctRows returns every acct record of the controller's kernel, by id.
func acctRows(t *testing.T, c *Controller) []*abdm.Record {
	t.Helper()
	res, _, err := c.System().ExecTimed(abdl.NewRetrieve(abdm.And(acctFile()), abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]*abdm.Record, len(res.Records))
	for i, sr := range res.Records {
		rows[i] = sr.Rec
	}
	slices.SortFunc(rows, func(a, b *abdm.Record) int {
		x, _ := a.Get("id")
		y, _ := b.Get("id")
		return int(x.AsInt() - y.AsInt())
	})
	return rows
}

func copyFile(t *testing.T, from, to string) {
	t.Helper()
	src, err := os.Open(from)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := os.Create(to)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTransfersRecover(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { transfersRecover(t, seed) })
	}
}

func transfersRecover(t *testing.T, seed int64) {
	tmp := t.TempDir()
	journalPath := filepath.Join(tmp, "journal.mldj")
	c, stores, _ := fleetController(t, tmp, xferBackends, nil, xferDir(t))
	attachJournalFile(t, c, journalPath)
	pairs := xferHot + xferWorkers*xferOwn
	for id := 0; id < 2*pairs; id++ {
		rec := abdm.NewRecord("acct", abdm.Keyword{Attr: "id", Val: abdm.Int(int64(id))},
			abdm.Keyword{Attr: "bal", Val: abdm.Int(xferTotal / 2)})
		if _, err := c.Exec(abdl.NewInsert(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.CheckpointFleet(stores); err != nil {
		t.Fatal(err)
	}

	r := &xferRun{t: t, seed: seed, c: c, ckpt: make(chan struct{}, 1)}
	ckptDone := make(chan struct{})
	go func() {
		defer close(ckptDone)
		for range r.ckpt {
			if _, err := c.CheckpointFleet(stores); err != nil {
				t.Errorf("seed %d: checkpoint: %v", seed, err)
			}
		}
	}()
	lasts := make([]map[int]int64, xferWorkers)
	var wg sync.WaitGroup
	for w := range lasts {
		lasts[w] = make(map[int]int64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.worker(w, lasts[w])
		}(w)
	}
	for n := 0; n < xferReaders; n++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			r.reader(n)
		}(n)
	}
	wg.Wait()
	close(r.ckpt)
	<-ckptDone
	if t.Failed() {
		return
	}

	// Invariant 2: the live table is the model.
	live := acctRows(t, c)
	if len(live) != 2*pairs {
		t.Fatalf("seed %d: %d accounts, want %d", seed, len(live), 2*pairs)
	}
	bal := func(id int) int64 {
		v, _ := live[id].Get("bal")
		return v.AsInt()
	}
	for p := 0; p < pairs; p++ {
		if s := bal(2*p) + bal(2*p+1); s != xferTotal {
			t.Errorf("seed %d: pair %d sums to %d", seed, p, s)
		}
	}
	for w, last := range lasts {
		for p, x := range last {
			if got := bal(2 * p); got != x {
				t.Errorf("seed %d: worker %d's pair %d holds %d, want its last transfer %d", seed, w, p, got, x)
			}
		}
	}

	// Invariant 3: recovery from a copy of the files equals the live table.
	crash := t.TempDir()
	for pos := 0; pos < xferBackends; pos++ {
		copyFile(t, fleetPath(tmp, pos), fleetPath(crash, pos))
	}
	copyFile(t, journalPath, filepath.Join(crash, "journal.mldj"))
	c2, _, _, replayed, cut := recoverFleet(t, crash, xferBackends, filepath.Join(crash, "journal.mldj"), xferDir(t))
	recovered := acctRows(t, c2)
	if len(recovered) != len(live) {
		t.Fatalf("seed %d: recovery (cut %d, %d replayed) holds %d accounts, live %d",
			seed, cut, replayed, len(recovered), len(live))
	}
	for i := range live {
		if !recovered[i].Equal(live[i]) {
			t.Errorf("seed %d: recovered row %v, live %v (cut %d, %d replayed)", seed, recovered[i], live[i], cut, replayed)
		}
	}
	st := c.Txns().Stats()
	t.Logf("seed %d: commits=%d aborts=%d deadlocks=%d cut=%d replayed=%d", seed, st.Commits, st.Aborts, st.Deadlocks, cut, replayed)
}
