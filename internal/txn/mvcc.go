package txn

import (
	"context"
	"errors"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/kdb"
)

// Multi-version snapshot transactions.
//
// The manager layers snapshot isolation for readers over the strict-2PL
// writers:
//
//   - A commit clock issues monotonically increasing epochs. The group-commit
//     leader, after its batch is durable, broadcasts one MVCC-COMMIT per
//     committed transaction stamping their pending versions with the batch's
//     epoch, then publishes the epoch — so a snapshot pinned at the published
//     clock can never observe a half-stamped transaction.
//   - BeginSnapshot pins a read-only transaction at the published clock. Its
//     statements skip the lock table entirely: each RETRIEVE is rewritten to
//     a snapshot read (Request.SnapEpoch) resolved against the version
//     chains, and mutations fail with ErrReadOnly.
//   - A watermark — the oldest live snapshot's epoch, or the clock when no
//     snapshot is live — drives garbage collection: MVCC-GC broadcasts prune
//     every version no current or future snapshot can observe. GC runs when
//     a snapshot ends and periodically as write commits accumulate.

// ErrReadOnly reports a mutation attempted inside a read-only snapshot
// transaction. The transaction stays active; only the statement fails.
var ErrReadOnly = errors.New("txn: read-only transaction cannot execute mutations")

// gcEvery is how many stamped commit batches elapse between periodic GC
// sweeps. Without it, a writer-only workload (no snapshots ever ending)
// would accumulate superseded versions forever.
const gcEvery = 32

// BeginSnapshot starts a read-only transaction pinned at the current commit
// epoch. It acquires no locks, buffers no undo or redo, and holds only a
// registry entry that bounds the garbage-collection watermark until it ends.
func (m *Manager) BeginSnapshot() *Txn {
	m.begins.Add(1)
	tx := &Txn{
		id:       m.ids.Add(1),
		m:        m,
		readOnly: true,
	}
	m.smu.Lock()
	tx.snap = m.clock.Load()
	m.snaps[tx.id] = tx.snap
	m.smu.Unlock()
	return tx
}

// ReadOnly reports whether the transaction is a snapshot reader.
func (t *Txn) ReadOnly() bool { return t.readOnly }

// SnapshotEpoch returns the commit epoch a snapshot transaction reads at
// (zero for read-write transactions).
func (t *Txn) SnapshotEpoch() uint64 { return t.snap }

// execSnapshot runs one statement of a read-only transaction: no locks, no
// undo, no redo — the request is rewritten to read the version chains at the
// transaction's pinned epoch.
func (m *Manager) execSnapshot(ctx context.Context, tx *Txn, req *abdl.Request) (*kdb.Result, time.Duration, error) {
	if isMutation(req.Kind) {
		return nil, 0, ErrReadOnly
	}
	cp := *req
	cp.SnapEpoch = tx.snap
	res, d, err := m.cfg.Exec.ExecTimedCtx(ctx, &cp)
	if err == nil {
		m.snapReads.Add(1)
		m.mSnapReads.Inc()
	}
	return res, d, err
}

// stampTxnID rewrites a mutation to carry the transaction's id, so the
// backends record its versions as pending under that transaction. Reads
// pass through unchanged.
func (m *Manager) stampTxnID(tx *Txn, req *abdl.Request) *abdl.Request {
	if !isMutation(req.Kind) {
		return req
	}
	cp := *req
	cp.TxnID = tx.id
	return &cp
}

// endSnapshot unregisters a finished snapshot transaction and, now that the
// watermark may have advanced, considers a GC sweep.
func (m *Manager) endSnapshot(tx *Txn) {
	m.smu.Lock()
	delete(m.snaps, tx.id)
	m.smu.Unlock()
	m.maybeGC()
}

// stampEpoch makes a durable commit batch visible to snapshots: one epoch is
// allocated for the whole batch, every transaction's pending versions are
// stamped with it in a single kernel round, and only then is the epoch
// published. Exactly one group-commit leader runs at a time, so epochs are
// monotonic. On a broadcast failure the epoch is not published — the batch
// stays durable and live, but snapshots keep reading the previous epoch
// rather than risk observing a half-stamped batch. It returns the epoch and
// whether it was published; the caller holds the stamp barrier.
func (m *Manager) stampEpoch(recs []CommitRecord) (uint64, bool) {
	epoch := m.clock.Load() + 1
	reqs := make([]*abdl.Request, len(recs))
	for i, rec := range recs {
		reqs[i] = &abdl.Request{Kind: abdl.MvccCommit, TxnID: rec.ID, MvccEpoch: epoch}
	}
	if _, _, err := m.cfg.Exec.ExecBatchCtx(context.Background(), reqs); err != nil {
		return epoch, false
	}
	m.clock.Store(epoch)
	if m.stampedBatches.Add(1)%gcEvery == 0 {
		m.maybeGC()
	}
	return epoch, true
}

// discardVersions drops an aborted transaction's pending versions on every
// backend. Undo restores the live state separately (with NoVersion set, so
// the restoration itself writes no history).
func (m *Manager) discardVersions(tx *Txn) {
	req := &abdl.Request{Kind: abdl.MvccAbort, TxnID: tx.id}
	_, _, _ = m.cfg.Exec.ExecTimedCtx(context.Background(), req)
}

// maybeGC broadcasts an MVCC-GC sweep when the watermark — the oldest live
// snapshot's epoch, or the published clock when none is live — has advanced
// past the last sweep. The pruned count and surviving version total feed the
// mlds_mvcc metrics.
func (m *Manager) maybeGC() {
	m.smu.Lock()
	w := m.clock.Load()
	for _, at := range m.snaps {
		if at < w {
			w = at
		}
	}
	if w <= m.lastGC {
		m.smu.Unlock()
		return
	}
	m.lastGC = w
	m.smu.Unlock()
	res, _, err := m.cfg.Exec.ExecTimedCtx(context.Background(),
		&abdl.Request{Kind: abdl.MvccGC, MvccEpoch: w})
	if err != nil || res == nil {
		return
	}
	m.gcPruned.Add(uint64(res.Count))
	m.mGCPruned.Add(uint64(res.Count))
	m.mVersions.Set(int64(res.Versions))
}

// MVCCStats is a point-in-time snapshot of the manager's MVCC counters.
type MVCCStats struct {
	Epoch         uint64 // last published commit epoch
	LiveSnapshots int    // snapshot transactions currently registered
	SnapshotReads uint64 // statements served from snapshots
	GCPruned      uint64 // versions pruned by GC sweeps
}

// MVCCStats returns the manager's MVCC counters.
func (m *Manager) MVCCStats() MVCCStats {
	m.smu.Lock()
	live := len(m.snaps)
	m.smu.Unlock()
	return MVCCStats{
		Epoch:         m.clock.Load(),
		LiveSnapshots: live,
		SnapshotReads: m.snapReads.Load(),
		GCPruned:      m.gcPruned.Load(),
	}
}
