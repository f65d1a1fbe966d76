package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/core"
	"mlds/internal/kc"
	"mlds/internal/mbds"
	"mlds/internal/txn"
)

// countingWriter counts the journal's physical writes. The controller wraps
// the journal in a buffered writer flushed once per commit batch, so every
// Write here is one group-commit flush reaching stable storage. A non-zero
// delay models the fsync latency of a real log device — the window during
// which concurrent committers pile onto the leader's next batch.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
	delay  time.Duration
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.delay > 0 {
		time.Sleep(w.delay)
	}
	return w.buf.Write(p)
}

// txnKernel builds a kernel controller over nFiles single-attribute files
// f0..f{n-1}, each holding records with one int attribute x.
func txnKernel(nFiles int) (*kc.Controller, *mbds.System, error) {
	dir := abdm.NewDirectory()
	if err := dir.DefineAttr("x", abdm.KindInt); err != nil {
		return nil, nil, err
	}
	for i := 0; i < nFiles; i++ {
		if err := dir.DefineFile(fmt.Sprintf("f%d", i), []string{"x"}); err != nil {
			return nil, nil, err
		}
	}
	sys, err := mbds.New(dir, mbds.DefaultConfig(2))
	if err != nil {
		return nil, nil, err
	}
	return kc.New(sys), sys, nil
}

func insertInto(file string, v int64) *abdl.Request {
	return abdl.NewInsert(abdm.NewRecord(file, abdm.Keyword{Attr: "x", Val: abdm.Int(v)}))
}

// E13GroupCommit measures the journal-flush economics of the transaction
// subsystem and proves recovery fidelity. Auto-commit pays one flush per
// statement; an explicit transaction of the same statements pays one flush
// total; concurrent committers share flushes through the group-commit
// leader. RecoverJournal then rebuilds exactly the committed state.
func E13GroupCommit() *Report {
	const id, title = "E13", "Group commit: journal flushes per commit, crash-recovery fidelity"
	const stmts = 64

	// Auto-commit: every statement is its own transaction and commit batch.
	autoC, autoSys, err := txnKernel(1)
	if err != nil {
		return failf(id, title, "kernel: %v", err)
	}
	defer autoSys.Close()
	autoW := &countingWriter{}
	autoC.AttachJournal(autoW)
	for v := int64(0); v < stmts; v++ {
		if _, err := autoC.Exec(insertInto("f0", v)); err != nil {
			return failf(id, title, "auto-commit insert %d: %v", v, err)
		}
	}

	// One explicit transaction: the same statements, one commit, one flush.
	oneC, oneSys, err := txnKernel(1)
	if err != nil {
		return failf(id, title, "kernel: %v", err)
	}
	defer oneSys.Close()
	oneW := &countingWriter{}
	oneC.AttachJournal(oneW)
	tx := oneC.Txns().Begin()
	ctx := txn.NewContext(context.Background(), tx)
	for v := int64(0); v < stmts; v++ {
		if _, err := oneC.ExecCtx(ctx, insertInto("f0", v)); err != nil {
			return failf(id, title, "txn insert %d: %v", v, err)
		}
	}
	if err := oneC.Txns().Commit(tx); err != nil {
		return failf(id, title, "commit: %v", err)
	}

	// Concurrent committers on disjoint files: overlapping commits ride the
	// same group-commit flush, so flushes <= commits.
	const workers, each = 8, 16
	grpC, grpSys, err := txnKernel(workers)
	if err != nil {
		return failf(id, title, "kernel: %v", err)
	}
	defer grpSys.Close()
	grpW := &countingWriter{delay: 200 * time.Microsecond}
	grpC.AttachJournal(grpW)
	var wg sync.WaitGroup
	var werr atomic.Value
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			file := fmt.Sprintf("f%d", i)
			for v := int64(0); v < each; v++ {
				tx := grpC.Txns().Begin()
				ctx := txn.NewContext(context.Background(), tx)
				if _, err := grpC.ExecCtx(ctx, insertInto(file, v)); err != nil {
					werr.Store(err)
					return
				}
				if err := grpC.Txns().Commit(tx); err != nil {
					werr.Store(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err, _ := werr.Load().(error); err != nil {
		return failf(id, title, "concurrent commit: %v", err)
	}
	commits := int(grpC.Txns().Stats().Commits)

	// Crash recovery: replaying the concurrent journal into a fresh kernel
	// restores exactly the committed statements.
	recC, recSys, err := txnKernel(workers)
	if err != nil {
		return failf(id, title, "kernel: %v", err)
	}
	defer recSys.Close()
	recovered, err := recC.RecoverJournal(bytes.NewReader(grpW.buf.Bytes()))
	if err != nil {
		return failf(id, title, "recover: %v", err)
	}

	ok := autoW.writes >= stmts && oneW.writes == 1 &&
		grpW.writes <= commits && recovered == workers*each
	body := fmt.Sprintf(
		"%-34s %-10s %s\n%-34s %-10d %d\n%-34s %-10d %d\n%-34s %-10d %d\n\n"+
			"group-commit flushes/commit: %.2f\n"+
			"recovery: %d/%d committed statements restored\n",
		"commit path", "commits", "journal flushes",
		fmt.Sprintf("auto-commit (%d stmts)", stmts), stmts, autoW.writes,
		fmt.Sprintf("one explicit txn (%d stmts)", stmts), 1, oneW.writes,
		fmt.Sprintf("concurrent (%dx%d txns)", workers, each), commits, grpW.writes,
		float64(grpW.writes)/float64(commits),
		recovered, workers*each)
	return report(id, title, ok, body)
}

// TxnContention is the mixed read/write contention workload behind the
// mldsbench -txn flag: sessions run multi-statement read-modify-write
// transactions through core ABDL sessions, each operation hitting one
// shared hot record with probability conflict and a session-private record
// otherwise. It reports commit throughput, abort rate, and deadlocks, and
// verifies serializability — the hot record's final balance must equal the
// committed hot increments (no lost updates).
func TxnContention(sessions, txnsPer, opsPer int, conflict float64) *Report {
	const id = "TXN"
	title := fmt.Sprintf("Transaction contention: %d sessions x %d txns x %d ops, %.0f%% conflict",
		sessions, txnsPer, opsPer, conflict*100)

	sys := core.NewSystem(core.Config{Kernel: mbds.DefaultConfig(2)})
	defer sys.Close()
	db, err := sys.CreateRelational("txnbench", "CREATE TABLE acct (owner INTEGER, bal INTEGER);")
	if err != nil {
		return failf(id, title, "create: %v", err)
	}
	if _, err := db.ExecABDL("INSERT (<FILE, acct>, <owner, -1>, <bal, 0>)"); err != nil {
		return failf(id, title, "seed hot record: %v", err)
	}
	for i := 0; i < sessions; i++ {
		if _, err := db.ExecABDL(fmt.Sprintf("INSERT (<FILE, acct>, <owner, %d>, <bal, 0>)", i)); err != nil {
			return failf(id, title, "seed session %d: %v", i, err)
		}
	}
	base := db.Ctrl.Txns().Stats()

	// bump reads owner's balance and writes back balance+1 inside the open
	// transaction.
	bump := func(sess core.Session, owner int) error {
		out, err := sess.Execute(fmt.Sprintf("RETRIEVE ((FILE = acct) AND (owner = %d)) (bal)", owner))
		if err != nil {
			return err
		}
		if len(out.Kernel.Records) != 1 {
			return fmt.Errorf("owner %d: %d records", owner, len(out.Kernel.Records))
		}
		bal, _ := out.Kernel.Records[0].Rec.Get("bal")
		_, err = sess.Execute(fmt.Sprintf("UPDATE ((FILE = acct) AND (owner = %d)) (bal = %d)",
			owner, bal.AsInt()+1))
		return err
	}

	var hotCommitted atomic.Int64
	var wg sync.WaitGroup
	var werr atomic.Value
	start := time.Now()
	for i := 0; i < sessions; i++ {
		sess, err := sys.Open("txnbench", "abdl")
		if err != nil {
			return failf(id, title, "open session %d: %v", i, err)
		}
		wg.Add(1)
		go func(i int, sess core.Session) {
			defer wg.Done()
			defer sess.Close()
			rng := rand.New(rand.NewSource(int64(i)))
			for t := 0; t < txnsPer; t++ {
				if err := sess.Begin(); err != nil {
					werr.Store(err)
					return
				}
				hot := 0
				aborted := false
				for o := 0; o < opsPer; o++ {
					owner := i
					if rng.Float64() < conflict {
						owner = -1
					}
					if err := bump(sess, owner); err != nil {
						var ae *txn.AbortedError
						if errors.As(err, &ae) {
							// Deadlock victim or lock timeout: the manager
							// already rolled the transaction back; the
							// workload moves on to its next transaction.
							aborted = true
							break
						}
						werr.Store(err)
						return
					}
					if owner == -1 {
						hot++
					}
				}
				if aborted {
					continue
				}
				if err := sess.Commit(); err != nil {
					werr.Store(err)
					return
				}
				hotCommitted.Add(int64(hot))
			}
		}(i, sess)
	}
	wg.Wait()
	wall := time.Since(start)
	if err, _ := werr.Load().(error); err != nil {
		return failf(id, title, "workload: %v", err)
	}

	stats := db.Ctrl.Txns().Stats()
	commits := stats.Commits - base.Commits
	aborts := stats.Aborts - base.Aborts
	deadlocks := stats.Deadlocks - base.Deadlocks
	out, err := db.ExecABDL("RETRIEVE ((FILE = acct) AND (owner = -1)) (bal)")
	if err != nil {
		return failf(id, title, "final read: %v", err)
	}
	finalHot, _ := out.Records[0].Rec.Get("bal")

	ok := commits > 0 && finalHot.AsInt() == hotCommitted.Load()
	body := fmt.Sprintf(
		"commits    %d (%.0f/sec)\naborts     %d (%.1f%% abort rate)\ndeadlocks  %d\n\n"+
			"hot record: %d committed increments, final balance %d (must match: no lost updates)\n",
		commits, float64(commits)/wall.Seconds(),
		aborts, 100*float64(aborts)/float64(commits+aborts),
		deadlocks,
		hotCommitted.Load(), finalHot.AsInt())
	return report(id, title, ok, body)
}
