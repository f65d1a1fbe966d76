package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mlds/internal/abdm"
	"mlds/internal/cdc"
	"mlds/internal/core"
	"mlds/internal/kc"
	"mlds/internal/kdb"
	"mlds/internal/pager"
)

// txnDurable is the write workload: explicit transfer transactions over
// backed stores with the journal attached and a fleet checkpoint every
// ckptEvery commits, and after the timed phases a crash and a timed
// recovery.
//
// Flush policy (fixed): the journal gets one buffered write per group-commit
// batch and no fsync; page files are fsynced when a checkpoint commits.
//
// Accounts form pairs (2p, 2p+1) whose balances always sum to pairTotal: a
// transfer sets the pair to (x, pairTotal-x). SQL here has no column
// arithmetic, so a transfer writes absolute values, and the invariant holds
// under any serial order of transfers. User u owns the pairs p with
// p mod Users = u and knows their exact balances; the hotPairs lowest pairs
// are written by every user, and for those only the invariant (and, inside
// the writing transaction, the value just written) is checked.
//
// Two things the issue put into the timed traffic run beside it instead,
// because with them in it no number repeated (README.md has the figures):
//
//   - Read-only snapshot transactions. A snapshot read does not use the
//     indexes: each SELECT walks all of the table's version chains (~25 ms)
//     under the store's read lock, and every transfer waits for it. One
//     read-only transaction in 200 halved the throughput. They run in the
//     warm-up, concurrently with transfers, where their replies are checked
//     like any other, and among the operations the traced run peels.
//   - The WATCH. Under this commit rate the watcher's commit subscription
//     overflows and it re-reads the journal from the start each time, which
//     took a third of the throughput and made it swing by a quarter from run
//     to run. It is open in the traced run, which measures its delivery lag.
type txnDurable struct {
	rows      int
	poolPages int
	watch     bool         // open the WATCH (the traced run does)
	trackLag  atomic.Bool  // measure commit-to-event delivery lag
	roEvery   atomic.Int32 // stream positions per read-only transaction; 0: none

	db       *core.Database
	jf       *kc.JournalFile
	dir      string
	openPair int // the pair of the transfer left uncommitted at the crash

	commits atomic.Int64
	ckptCh  chan struct{}

	ckptMu sync.Mutex // held while a checkpoint runs

	mu        sync.Mutex
	ckpts     []window        // checkpoint windows
	ckptMarks []mark          // the end of each
	ackAt     map[int64]int64 // x of a tracked transfer -> commit ack, unix ns
	eventAt   map[int64]int64 // x -> event arrival when it beat the ack
	lags      []int64         // commit ack -> event on the watch, ns
	events    int             // change events received
	resyncs   int             // OpResync events received
	watchErr  error
}

// traced makes the workload open its WATCH and time the delivery of events.
func (w *txnDurable) traced() {
	w.watch = true
	w.trackLag.Store(true)
}

// traceMetrics reports the change-capture and checkpoint figures the traced
// closed loop gathered, and stops matching events to commits: the peel phase
// commits every transfer several times.
func (w *txnDurable) traceMetrics(m map[string]float64, closed *phase) {
	w.trackLag.Store(false)
	w.mu.Lock()
	defer w.mu.Unlock()
	lags := durationsUS(w.lags)
	m["cdc.deliver_lag_p50_us"] = quantileOr0(lags, 0.5)
	m["cdc.deliver_lag_p99_us"] = quantileOr0(lags, 0.99)
	m["cdc.resyncs_total"] = float64(w.resyncs)
	var took []float64
	for _, c := range w.ckpts {
		took = append(took, c.to.Sub(c.from).Seconds())
	}
	m["kc.checkpoint_s"] = medianOf(took)
	// Foreground stall: the p99 of operations that completed while a
	// checkpoint ran, less the p99 of the others.
	var in, out []int64
	for i, end := range closed.end {
		at := closed.start.Add(time.Duration(end))
		inside := false
		for _, c := range w.ckpts {
			if !at.Before(c.from) && !at.After(c.to) {
				inside = true
				break
			}
		}
		if inside {
			in = append(in, closed.lat[i])
		} else {
			out = append(out, closed.lat[i])
		}
	}
	if len(in) > 0 && len(out) > 0 {
		m["kc.checkpoint_stall_p99_ms"] = (quantile(durationsUS(in), 0.99) - quantile(durationsUS(out), 0.99)) / 1e3
	}
}

// window is one interval of wall time.
type window struct{ from, to time.Time }

const (
	// ckptEvery is the commit count between fleet checkpoints.
	ckptEvery = 1000
	// hotPairs is the size of the set every user writes (100 accounts).
	hotPairs = 50
	// watchRows bounds the WATCH predicate (id < watchRows): the hot set
	// and the first cold pairs, so a steady share of commits deliver events.
	watchRows = 3200
	// roShare is the stream positions per read-only transaction in the
	// phases that run them: one operation in twenty.
	roShare = 20
	// tailTransfers is the fixed number of transfers committed after the
	// last checkpoint and replayed by recovery.
	tailTransfers = 2000
)

func newTxnDurable() *txnDurable {
	return &txnDurable{rows: 100_000}
}

func (w *txnDurable) scale(rows int) { w.rows = rows }

func (w *txnDurable) rate() float64 { return rateTxn }

func (w *txnDurable) sessions() []sessionSpec { return []sessionSpec{{langSQL, bankDB}} }

func (w *txnDurable) describe() string {
	return fmt.Sprintf("bank.acct: %d rows x ~%d B in backed stores, pool %d pages per partition (holds the whole heap); journal: one buffered write per group-commit batch, no fsync; page files fsync at checkpoint commit; fleet checkpoint every %d commits; transfers (20%% of them on the %d shared hot accounts); read-only snapshot transactions in the warm-up only; WATCH on id < %d open: %v",
		w.rows, bankRowBytes, w.poolPages, ckptEvery, 2*hotPairs, watchRows, w.watch)
}

func (w *txnDurable) build(dir string, tracing bool) (*core.System, error) {
	w.dir = dir
	w.poolPages = int(float64(w.rows)/Backends/rowsPerPage*1.5) + 64
	sys := core.NewSystem(core.Config{Kernel: pagedKernel(dir, w.poolPages), Tracing: tracing})
	db, err := loadBank(sys, w.rows)
	if err != nil {
		sys.Close()
		return nil, err
	}
	w.db = db
	if w.jf, err = kc.OpenJournalFile(journalPath(dir)); err != nil {
		sys.Close()
		return nil, err
	}
	if err := db.Ctrl.AttachJournalFile(w.jf); err != nil {
		sys.Close()
		return nil, err
	}
	// The load bypassed the journal; the checkpoint makes the page files
	// cover it, so the journal starts empty at a committed image.
	if _, err := db.Ctrl.CheckpointFleet(stores(db)); err != nil {
		sys.Close()
		return nil, fmt.Errorf("checkpoint after load: %w", err)
	}
	return sys, nil
}

func (w *txnDurable) newUser(u int, rng *rand.Rand) generator {
	return &txnUser{w: w, u: u, rng: rng, x: make(map[int]int64)}
}

type txnUser struct {
	w   *txnDurable
	u   int
	rng *rand.Rand
	n   int           // operations generated
	seq int64         // transfers generated
	x   map[int]int64 // balance of account 2p for the owned pairs written so far
}

// ownPair draws one of the user's own cold pairs.
func (g *txnUser) ownPair() int {
	pairs := g.w.rows / 2
	per := (pairs - hotPairs) / Users
	return hotPairs + g.rng.Intn(per)*Users + g.u
}

func (g *txnUser) pairX(p int) int64 {
	if v, ok := g.x[p]; ok {
		return v
	}
	return pairTotal / 2
}

func (g *txnUser) next() *op {
	// Read-only transactions come at fixed positions of the stream, one in
	// roEvery, in the phases that have them (see enter).
	g.n++
	if every := int(g.w.roEvery.Load()); every > 0 && (g.n+7*g.u)%every == 0 {
		return g.readOnly()
	}
	return g.transfer()
}

func selectBalance(id int) string {
	return fmt.Sprintf("SELECT id, balance FROM acct WHERE id = %d", id)
}

func updateBalance(id int, v int64) string {
	return fmt.Sprintf("UPDATE acct SET balance = %d WHERE id = %d", v, id)
}

// transfer is BEGIN; UPDATE; UPDATE; SELECT; COMMIT on one pair. Every x is
// unique across the run, so a change event can be matched to its commit.
func (g *txnUser) transfer() *op {
	if g.rng.Intn(5) == 0 {
		return g.transferOn(g.rng.Intn(hotPairs), true)
	}
	return g.transferOn(g.ownPair(), false)
}

// transferOn builds a transfer on pair p; hot says every user writes p.
func (g *txnUser) transferOn(p int, hot bool) *op {
	g.seq++
	x := int64(g.u) + Users*(g.seq+100)
	a, b := 2*p, 2*p+1
	affected := func(r string) error { return wantAffected(r, 1) }
	w := g.w
	return &op{kind: "transfer", txn: true, stmts: []stmt{
		{lang: langSQL, text: "BEGIN WORK"},
		{lang: langSQL, text: updateBalance(a, x), check: affected},
		{lang: langSQL, text: updateBalance(b, pairTotal-x), check: affected},
		{lang: langSQL, text: selectBalance(a), check: func(r string) error { return wantRow(r, itoa(int64(a)), itoa(x)) }},
		{lang: langSQL, text: "COMMIT WORK"},
	}, applied: func() {
		if !hot {
			g.x[p] = x
		}
		w.committed(a, x)
	}}
}

// readOnly reads one pair in a snapshot transaction. Half the time it is one
// of the user's own pairs, whose balances it knows exactly; otherwise any
// pair, which must sum to pairTotal on the snapshot (the balance-sum
// invariant).
func (g *txnUser) readOnly() *op {
	p := g.rng.Intn(g.w.rows / 2)
	exact := g.rng.Intn(2) == 0
	if exact {
		p = g.ownPair()
	}
	x := g.pairX(p)
	var first int64
	balanceOf := func(r string, id int) (int64, error) {
		rows, err := tableRows(r)
		if err != nil {
			return 0, err
		}
		if len(rows) != 1 || len(rows[0]) != 2 || rows[0][0] != itoa(int64(id)) {
			return 0, fmt.Errorf("account %d: reply %q", id, r)
		}
		v, err := atoi(rows[0][1])
		return int64(v), err
	}
	return &op{kind: "readonly", txn: true, stmts: []stmt{
		{lang: langSQL, text: "BEGIN WORK READ ONLY"},
		{lang: langSQL, text: selectBalance(2 * p), check: func(r string) (err error) {
			first, err = balanceOf(r, 2*p)
			if err == nil && exact && first != x {
				err = fmt.Errorf("account %d: balance %d, want %d", 2*p, first, x)
			}
			return err
		}},
		{lang: langSQL, text: selectBalance(2*p + 1), check: func(r string) error {
			second, err := balanceOf(r, 2*p+1)
			if err == nil && first+second != pairTotal {
				err = fmt.Errorf("pair %d sums to %d, want %d", p, first+second, pairTotal)
			}
			return err
		}},
		{lang: langSQL, text: "COMMIT WORK"},
	}}
}

// committed notes one acknowledged transfer: it triggers the checkpointer
// every ckptEvery commits and, in the traced run, stamps the ack time of a
// watched account for the delivery-lag measurement.
func (w *txnDurable) committed(account int, x int64) {
	if n := w.commits.Add(1); n%ckptEvery == 0 && w.ckptCh != nil {
		select {
		case w.ckptCh <- struct{}{}:
		default:
		}
	}
	if !w.trackLag.Load() || account >= watchRows {
		return
	}
	now := time.Now().UnixNano()
	w.mu.Lock()
	if ev, ok := w.eventAt[x]; ok {
		delete(w.eventAt, x)
		w.lags = append(w.lags, max(ev-now, 0))
	} else {
		w.ackAt[x] = now
	}
	w.mu.Unlock()
}

// enter switches the read-only transactions on for the warm-up and the
// peeled sample and off for the timed phases.
func (w *txnDurable) enter(phase string) {
	if phase == phaseWarmup || phase == phasePeel {
		w.roEvery.Store(roShare)
	} else {
		w.roEvery.Store(0)
	}
}

// start starts the checkpointer and, in the traced run, opens the WATCH on
// a session of its own.
func (w *txnDurable) start(b *bed) (func(), error) {
	w.ckptCh = make(chan struct{}, 1)
	w.ackAt, w.eventAt = make(map[int64]int64), make(map[int64]int64)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-quit:
				return
			case <-w.ckptCh:
				w.ckptMu.Lock()
				t0 := time.Now()
				if _, err := w.db.Ctrl.CheckpointFleet(stores(w.db)); err != nil {
					b.noteErr("checkpoint: %v", err)
				}
				w.ckptMu.Unlock()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				w.mu.Lock()
				w.ckpts = append(w.ckpts, window{t0, time.Now()})
				w.ckptMarks = append(w.ckptMarks, mark{at: time.Now(), mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc})
				w.mu.Unlock()
			}
		}
	}()
	stopWatch := func() {}
	if w.watch {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		ws, err := b.conns[0].Open(ctx, bankDB, langSQL)
		if err == nil {
			var out *core.Outcome
			if out, err = ws.ExecuteCtx(ctx, fmt.Sprintf("WATCH SELECT id, balance FROM acct WHERE id < %d", watchRows)); err == nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
					w.consume(out.Watch)
				}()
				stopWatch = func() {
					out.Watch.Close()
					_ = ws.Close()
				}
			}
		}
		if err != nil {
			close(quit)
			wg.Wait()
			return nil, fmt.Errorf("WATCH: %w", err)
		}
	}
	return func() {
		close(quit)
		stopWatch()
		wg.Wait()
	}, nil
}

func (w *txnDurable) marks() []mark {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]mark(nil), w.ckptMarks...)
}

func (w *txnDurable) whileIdle(fn func()) {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	fn()
}

// consume drains the watch, counting events and matching tracked ones to
// their commit acks.
func (w *txnDurable) consume(watch *cdc.Watcher) {
	for ch := range watch.C {
		now := time.Now().UnixNano()
		w.mu.Lock()
		w.events++
		switch ch.Op {
		case cdc.OpResync:
			w.resyncs++
		case cdc.OpUpdate:
			if w.trackLag.Load() && ch.Rec != nil {
				if v, ok := ch.Rec.Get("balance"); ok {
					x := v.AsInt()
					if ack, ok := w.ackAt[x]; ok {
						delete(w.ackAt, x)
						w.lags = append(w.lags, max(now-ack, 0))
					} else if id, _ := ch.Rec.Get("id"); id.AsInt()%2 == 0 {
						w.eventAt[x] = now
					}
				}
			}
		}
		w.mu.Unlock()
	}
	w.mu.Lock()
	w.watchErr = watch.Err()
	w.mu.Unlock()
}

// finish checkpoints, commits the fixed tail, crashes and recovers.
func (w *txnDurable) finish(b *bed, m map[string]float64) (failed int, err error) {
	ctx := context.Background()
	if w.watchErr != nil {
		b.noteErr("watch ended: %v", w.watchErr)
		failed++
	}
	if w.watch && w.events == 0 {
		b.noteErr("the watch delivered no events")
		failed++
	}
	t0 := time.Now()
	if _, err := w.db.Ctrl.CheckpointFleet(stores(w.db)); err != nil {
		return failed, fmt.Errorf("checkpoint before the tail: %w", err)
	}
	w.mu.Lock()
	w.ckpts = append(w.ckpts, window{t0, time.Now()})
	w.mu.Unlock()

	journal0, err := os.Stat(journalPath(w.dir))
	if err != nil {
		return failed, err
	}

	// The tail: exactly tailTransfers transfers from one client in turn, so
	// the final balance of every pair they touch is known.
	for i := 0; i < tailTransfers; i++ {
		u := b.users[i%len(b.users)]
		o := u.gen.(*txnUser).transfer()
		if ok, _ := b.runOp(ctx, u, o, nil); !ok {
			failed++
		}
	}
	journal1, err := os.Stat(journalPath(w.dir))
	if err != nil {
		return failed, err
	}
	m["kc.journal_bytes_per_commit"] = float64(journal1.Size()-journal0.Size()) / tailTransfers

	// One more transfer is left open: its updates are applied but never
	// committed, so recovery must not bring them back.
	u0 := b.users[0]
	g0 := u0.gen.(*txnUser)
	w.openPair = g0.ownPair()
	open := g0.transferOn(w.openPair, false)
	for _, st := range open.stmts[:3] {
		if _, err := u0.sess[langSQL].ExecuteCtx(ctx, st.text); err != nil {
			return failed, fmt.Errorf("open transfer %q: %w", st.text, err)
		}
	}

	// Crash: the files as they are now are all that survives — nothing is
	// closed or flushed first. Recovery runs on a copy so the abandoned
	// system can be torn down afterwards.
	rdir := filepath.Join(w.dir, "recovered")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return failed, err
	}
	for pos := 0; pos < Backends; pos++ {
		if err := copyFile(partPath(w.dir, pos), partPath(rdir, pos)); err != nil {
			return failed, err
		}
	}
	if err := copyFile(journalPath(w.dir), journalPath(rdir)); err != nil {
		return failed, err
	}
	rec, err := recoverBank(rdir, w.poolPages)
	if err != nil {
		return failed, fmt.Errorf("recovery: %w", err)
	}
	defer closeSystem(rec.sys)
	m["kc.recovery_s"] = rec.elapsed.Seconds()
	m["kc.recover_replayed_entries"] = float64(rec.replayed)
	if want := 2 * tailTransfers; rec.replayed != want {
		b.noteErr("recovery replayed %d journal entries, want %d", rec.replayed, want)
		failed++
	}
	failed += w.verifyRecovered(b, rec.sys)
	return failed, nil
}

// verifyRecovered checks the recovered database: the table-wide balance
// sum, every pair the users know exactly (all acknowledged transfers on
// their own pairs, the tail included), and the uncommitted transfer's pair.
func (w *txnDurable) verifyRecovered(b *bed, sys *core.System) (failed int) {
	sess, err := sys.Open(bankDB, langSQL)
	if err != nil {
		b.noteErr("recovered system: %v", err)
		return 1
	}
	defer sess.Close()
	out, err := sess.Execute("SELECT COUNT(*), SUM(balance) FROM acct")
	if err == nil {
		err = wantRow(out.Rendered, itoa(int64(w.rows)), itoa(int64(w.rows/2)*pairTotal))
	}
	if err != nil {
		b.noteErr("recovered balance sum: %v", err)
		failed++
	}
	g0 := b.users[0].gen.(*txnUser)
	g0.x[w.openPair] = g0.pairX(w.openPair) // the uncommitted transfer's pair: still its old balances
	for _, u := range b.users {
		g := u.gen.(*txnUser)
		for p, x := range g.x {
			for _, acct := range [][2]int64{{int64(2 * p), x}, {int64(2*p + 1), pairTotal - x}} {
				out, err := sess.Execute(selectBalance(int(acct[0])))
				if err == nil {
					err = wantRow(out.Rendered, itoa(acct[0]), itoa(acct[1]))
				}
				if err != nil {
					b.noteErr("recovered account %d: %v", acct[0], err)
					failed++
				}
			}
		}
	}
	return failed
}

// recovered is a bank system recovered from crashed files.
type recovered struct {
	sys      *core.System
	elapsed  time.Duration
	replayed int
}

// recoverBank mounts the page files at their common fleet cut and replays
// the journal tail past it, timing the mount and the replay.
func recoverBank(dir string, poolPages int) (*recovered, error) {
	t0 := time.Now()
	paths := make([]string, Backends)
	for i := range paths {
		paths[i] = partPath(dir, i)
	}
	cut, err := kc.FleetCut(paths)
	if err != nil {
		return nil, err
	}
	metas := make([]pager.Meta, Backends)
	cfg := kernelConfig()
	cfg.StoreOpener = func(pos int, d *abdm.Directory, opts []kdb.Option) (*kdb.Store, error) {
		opts = append(opts, kdb.WithPoolPages(poolPages), kdb.WithPageSize(PageSize))
		st, meta, err := kdb.OpenBackedAt(paths[pos], d, cut, opts...)
		metas[pos] = meta
		return st, err
	}
	sys := core.NewSystem(core.Config{Kernel: cfg})
	db, err := sys.CreateRelational(bankDB, bankDDL)
	if err != nil {
		sys.Close()
		return nil, err
	}
	var maxID uint64
	for _, meta := range metas {
		maxID = max(maxID, meta.NextID)
	}
	db.Kernel.SeedIDs(maxID)
	f, err := os.Open(journalPath(dir))
	if err != nil {
		closeSystem(sys)
		return nil, err
	}
	defer f.Close()
	n, err := db.Ctrl.RecoverFleet(f, cut, metas...)
	if err != nil {
		closeSystem(sys)
		return nil, err
	}
	return &recovered{sys: sys, elapsed: time.Since(t0), replayed: n}, nil
}

func copyFile(from, to string) error {
	in, err := os.Open(from)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
