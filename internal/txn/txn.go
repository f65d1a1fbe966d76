// Package txn is the transaction subsystem of the multi-lingual database
// system: it gives every session BEGIN/COMMIT/ABORT semantics over the
// existing LIL→KMS→KC→MBDS pipeline.
//
// Concurrency control is strict two-phase locking at ABDM-file granularity
// (the multi-granularity IS/IX/S/SIX/X scheme with a root resource standing
// for the whole store), with a wait-for-graph deadlock detector that aborts
// the youngest transaction of a cycle and a lock-wait timeout as fallback.
// Atomicity is undo-based: before every DELETE or UPDATE the manager captures
// before-images of the qualifying records, and every INSERT records its
// assigned database key, so ABORT restores the store exactly by deleting by
// key and re-inserting the images in reverse order. Durability is redo-based:
// a committing transaction hands its buffered mutation log to a CommitSink
// (the kc journal) which frames it with a commit marker and flushes once per
// commit batch — group commit.
package txn

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/obs"
	"mlds/internal/wire"
)

// Executor runs ABDL requests against the kernel. *mbds.System satisfies it;
// the manager deliberately sits above MBDS and below kc so undo and
// before-image traffic bypasses the kc trace and journal.
type Executor interface {
	ExecTimedCtx(ctx context.Context, req *abdl.Request) (*kdb.Result, time.Duration, error)
	ExecBatchCtx(ctx context.Context, reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error)
}

// JournalRec is one redo-log record of a transaction: the mutating request
// in wire form plus the controller's key-allocator position (so replay
// restores key allocation exactly). Affected pins the
// database keys the mutation touched, so change-data-capture consumers can
// apply UPDATE and DELETE deltas by key instead of re-evaluating the query
// (which would observe post-commit state, not the state the statement saw).
type JournalRec struct {
	Req      wire.Request
	Key      int64
	Affected []uint64
}

// CommitRecord is one committing transaction's redo log. Epoch is the MVCC
// commit epoch the batch was stamped with (0 when MVCC is off or the batch
// stamped nothing), and Pos is the sink's journal position — the count of
// committed data entries through and including this record — when the sink
// implements PosReader. Together they let a lossless tailer detect exactly
// which journal range a dropped record covered and re-read it.
type CommitRecord struct {
	ID      uint64
	Entries []JournalRec
	Epoch   uint64
	Pos     uint64
}

// CommitSink receives commit batches. WriteCommits must persist every
// record — framed so recovery can tell committed work from uncommitted — with
// a single flush for the whole batch; that one call is the group-commit
// window. Aborted transactions never reach the sink: their redo logs are
// dropped at rollback.
type CommitSink interface {
	WriteCommits(recs []CommitRecord) error
}

// PosReader is optionally implemented by a CommitSink that counts committed
// data entries (the kc journal does). The group-commit leader reads the
// position once per flushed batch and distributes per-record end positions
// onto the published CommitRecords; batches are serialized by the leader, so
// the read is exact.
type PosReader interface {
	JournalPos() uint64
}

// EpochNoter is optionally implemented by a CommitSink that tracks which
// journal prefix each commit epoch corresponds to (the kc journal does, for
// fuzzy checkpoints). After a batch is durable and its versions are stamped,
// the group-commit leader calls NoteEpoch with the published epoch — under
// the stamp barrier, so the pairing of epoch to sink position is exact.
type EpochNoter interface {
	NoteEpoch(epoch uint64)
}

// Config configures a Manager.
type Config struct {
	Exec Executor   // kernel executor (required)
	Sink CommitSink // commit-record sink; nil = no durability layer attached

	// KeyPos reports the controller's current key-allocator position for
	// journal records; nil means keys are not tracked.
	KeyPos func() int64

	// LockTimeout bounds every lock wait; a waiter past it aborts with
	// ErrLockTimeout. Zero means DefaultLockTimeout.
	LockTimeout time.Duration

	// Metrics and DB label the manager's metric series. A nil registry
	// disables metrics.
	Metrics *obs.Registry
	DB      string

	// MVCC enables multi-version snapshot reads (see mvcc.go): mutations
	// write pending versions stamped at group commit, BeginSnapshot pins
	// lock-free read-only transactions, and a watermark GC prunes history.
	// Off, the manager is pure strict 2PL and sends no MVCC traffic — unit
	// harnesses with fake executors stay undisturbed.
	MVCC bool
}

// DefaultLockTimeout is the lock-wait bound when Config.LockTimeout is zero:
// long enough that the wait-for-graph detector resolves genuine deadlocks
// first, short enough that an undetectable stall cannot hang a session.
const DefaultLockTimeout = 2 * time.Second

// State is a transaction's lifecycle state.
type State int

// Transaction states.
const (
	Active State = iota
	Committed
	Aborted
)

var stateNames = [...]string{"active", "committed", "aborted"}

// String names the state.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "state(?)"
}

// undoRec reverses one applied record mutation: delete the record stored
// under id, then, if image is non-nil, re-insert the image under the same
// id. The pair is idempotent, so undo also repairs partially-applied
// broadcasts.
type undoRec struct {
	id    abdm.RecordID
	file  string
	image *abdm.Record // nil: the mutation was an INSERT — deletion suffices
}

// Txn is one transaction. A Txn is not safe for concurrent statements; the
// manager is safe for concurrent transactions.
type Txn struct {
	id uint64
	m  *Manager

	mu    sync.Mutex
	state State
	undo  []undoRec
	redo  []JournalRec

	// readOnly marks a snapshot transaction (BeginSnapshot): it reads the
	// version chains at epoch snap and never takes a lock.
	readOnly bool
	snap     uint64

	// touched records that at least one mutation reached the kernel — even a
	// failed one may have left pending versions on some backends, so abort
	// must broadcast MVCC-ABORT.
	touched bool

	// locks is this transaction's held lock set, keyed by resource name.
	// Guarded by the manager's lock table mutex, not tx.mu.
	locks map[string]Mode
}

// ID returns the transaction's id. Ids increase monotonically, so a larger
// id means a younger transaction — the deadlock victim ordering.
func (t *Txn) ID() uint64 { return t.id }

// State returns the transaction's lifecycle state.
func (t *Txn) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// AbortedError reports that a statement's transaction was rolled back by the
// manager — as a deadlock victim, on lock timeout, or because undo was
// required. The transaction no longer exists; the session must BEGIN anew.
type AbortedError struct {
	ID    uint64
	Cause error
}

// Error describes the abort.
func (e *AbortedError) Error() string {
	return fmt.Sprintf("txn %d aborted: %v", e.ID, e.Cause)
}

// Unwrap exposes the abort cause (e.g. ErrDeadlock, ErrLockTimeout).
func (e *AbortedError) Unwrap() error { return e.Cause }

// ErrNotActive reports an operation on a committed or aborted transaction.
var ErrNotActive = fmt.Errorf("txn: transaction is not active")

// commitReq is one transaction waiting in the group-commit queue.
type commitReq struct {
	rec  CommitRecord
	done chan error
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Begins    uint64
	Commits   uint64
	Aborts    uint64
	Deadlocks uint64
}

// Manager coordinates transactions over one kernel database.
type Manager struct {
	cfg   Config
	locks *lockTable
	ids   atomic.Uint64

	// Group commit: the first committer becomes the flush leader and drains
	// the queue — every transaction enqueued while a flush is in progress
	// rides the leader's next WriteCommits call.
	cmu      sync.Mutex
	queue    []commitReq
	flushing bool

	// Commit-stream subscribers (SubscribeCommits): fed by the leader after
	// each batch is durable and stamped.
	subMu   sync.Mutex
	subs    map[uint64]*CommitSub
	nextSub uint64

	begins    atomic.Uint64
	commits   atomic.Uint64
	aborts    atomic.Uint64
	deadlocks atomic.Uint64

	// MVCC state (Config.MVCC; see mvcc.go). clock is the last published
	// commit epoch; snaps registers each live snapshot's pinned epoch so the
	// GC watermark never overtakes a reader. stampMu is the stamp barrier:
	// held around every stamp broadcast, so WithStampBarrier callers observe
	// whole epochs — never a half-stamped batch.
	stampMu        sync.Mutex
	clock          atomic.Uint64
	smu            sync.Mutex
	snaps          map[uint64]uint64
	lastGC         uint64
	stampedBatches atomic.Uint64
	snapReads      atomic.Uint64
	gcPruned       atomic.Uint64

	mCommits    *obs.Counter
	mAborts     *obs.Counter
	mDeadlocks  *obs.Counter
	mLockWait   *obs.Histogram
	mSnapReads  *obs.Counter
	mGCPruned   *obs.Counter
	mVersions   *obs.Gauge
	mSubDropped *obs.Counter
}

// NewManager builds a transaction manager over the executor.
func NewManager(cfg Config) *Manager {
	if cfg.LockTimeout <= 0 {
		cfg.LockTimeout = DefaultLockTimeout
	}
	m := &Manager{cfg: cfg, locks: newLockTable(cfg.LockTimeout)}
	reg := cfg.Metrics
	dbL := obs.L("db", cfg.DB)
	m.mCommits = reg.Counter("mlds_txn_commits_total",
		"transactions committed", dbL)
	m.mAborts = reg.Counter("mlds_txn_aborts_total",
		"transactions aborted (explicit ROLLBACK, deadlock, timeout, or statement failure)", dbL)
	m.mDeadlocks = reg.Counter("mlds_txn_deadlocks_total",
		"deadlock cycles detected by the wait-for-graph detector", dbL)
	m.mLockWait = reg.Histogram("mlds_txn_lock_wait_seconds",
		"time spent blocked on the lock table per lock wait", nil, dbL)
	m.mSnapReads = reg.Counter("mlds_mvcc_snapshot_reads_total",
		"statements served lock-free from MVCC snapshots", dbL)
	m.mGCPruned = reg.Counter("mlds_mvcc_gc_pruned_total",
		"record versions pruned by the MVCC watermark GC", dbL)
	m.mVersions = reg.Gauge("mlds_mvcc_versions",
		"live record versions across the kernel backends, as of the last GC sweep", dbL)
	m.mSubDropped = reg.Counter("mlds_commit_sub_dropped_total",
		"commit records dropped from full commit-stream subscriber buffers (tailers resynchronize from the journal)", dbL)
	if cfg.MVCC {
		m.clock.Store(1)
		m.lastGC = 1
		m.snaps = make(map[uint64]uint64)
	}
	m.locks.onWait = func(d time.Duration) { m.mLockWait.Observe(d.Seconds()) }
	m.locks.onDeadlock = func() {
		m.deadlocks.Add(1)
		m.mDeadlocks.Inc()
	}
	return m
}

// Begin starts a transaction.
func (m *Manager) Begin() *Txn {
	m.begins.Add(1)
	return &Txn{
		id:    m.ids.Add(1),
		m:     m,
		locks: make(map[string]Mode),
	}
}

// Stats returns the manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Begins:    m.begins.Load(),
		Commits:   m.commits.Load(),
		Aborts:    m.aborts.Load(),
		Deadlocks: m.deadlocks.Load(),
	}
}

// lockStep is one entry of a request's lock plan.
type lockStep struct {
	name string
	mode Mode
}

// lockPlan computes the locks a request needs: the root resource in an
// intention mode plus each named file in S or X — or, when the request's
// qualification does not confine it to named files, the root itself in
// S or X.
func lockPlan(req *abdl.Request) []lockStep {
	write := false
	var files []string
	confined := true
	switch req.Kind {
	case abdl.Insert:
		write = true
		files = []string{req.Record.File()}
	case abdl.Delete, abdl.Update:
		write = true
		files, confined = req.Query.Files()
		if req.Kind == abdl.Delete && req.ForceID != 0 {
			// Targeted delete ignores the qualification and may touch any
			// file, so it needs the root exclusively.
			confined = false
		}
	case abdl.Retrieve:
		files, confined = req.Query.Files()
	case abdl.RetrieveCommon:
		f1, ok1 := req.Query.Files()
		f2, ok2 := req.Query2.Files()
		confined = ok1 && ok2
		files = append(f1, f2...)
	}
	fileMode, rootMode := S, IS
	if write {
		fileMode, rootMode = X, IX
	}
	if !confined {
		return []lockStep{{rootResource, fileMode}}
	}
	plan := []lockStep{{rootResource, rootMode}}
	sort.Strings(files)
	prev := "\x00"
	for _, f := range files {
		if f != prev {
			plan = append(plan, lockStep{f, fileMode})
			prev = f
		}
	}
	return plan
}

// acquirePlan takes every lock of the plan in order (root first, then files
// sorted), returning the first lock failure.
func (m *Manager) acquirePlan(tx *Txn, plan []lockStep) error {
	for _, st := range plan {
		if err := m.locks.acquire(tx, st.name, st.mode); err != nil {
			return err
		}
	}
	return nil
}

func isMutation(k abdl.Kind) bool {
	return k == abdl.Insert || k == abdl.Delete || k == abdl.Update
}

// beforeImages retrieves every record a DELETE or UPDATE will touch, whole.
// The images are the kernel's own rows, shared and read-only: the mutation
// that follows replaces the stored record, it does not write into it, so the
// image still holds the old values when undo re-inserts it. The retrieve runs
// against the executor directly, below kc, so it appears in no trace and no
// journal.
func (m *Manager) beforeImages(ctx context.Context, req *abdl.Request) ([]undoRec, error) {
	if req.Kind != abdl.Delete && req.Kind != abdl.Update {
		return nil, nil
	}
	if req.Kind == abdl.Delete && req.ForceID != 0 {
		// Key-targeted deletes are the undo primitive itself; they never
		// originate from sessions, and imaging them content-free is not
		// possible, so they carry no undo.
		return nil, nil
	}
	probe := abdl.NewRetrieve(req.Query, abdl.AllAttrs)
	res, _, err := m.cfg.Exec.ExecTimedCtx(ctx, probe)
	if err != nil {
		return nil, fmt.Errorf("txn: before-image capture: %w", err)
	}
	undo := make([]undoRec, 0, len(res.Records))
	for _, sr := range res.Records {
		undo = append(undo, undoRec{id: sr.ID, file: sr.Rec.File(), image: sr.Rec})
	}
	return undo, nil
}

// journalRec builds the redo record for an applied mutation. An INSERT that
// let the kernel assign its database key is journalled with that key pinned
// (ForceID), so a replay against a checkpoint image re-creates the record
// under the identical key regardless of allocator state.
func (m *Manager) journalRec(req *abdl.Request, res *kdb.Result) JournalRec {
	rec := JournalRec{Req: wire.FromRequest(req)}
	if req.Kind == abdl.Insert && req.ForceID == 0 && res != nil && len(res.Affected) > 0 {
		rec.Req.ForceID = uint64(res.Affected[0])
	}
	if res != nil && len(res.Affected) > 0 {
		rec.Affected = make([]uint64, len(res.Affected))
		for i, id := range res.Affected {
			rec.Affected[i] = uint64(id)
		}
	}
	if m.cfg.KeyPos != nil {
		rec.Key = m.cfg.KeyPos()
	}
	return rec
}

// WithStampBarrier runs fn while the stamp barrier is held: no commit batch
// is mid-stamp, so every backend's version chains hold whole epochs only. A
// checkpoint takes its fence inside the barrier — the epoch it reads is then
// an exact batch boundary. Group commit keeps flushing throughout; only the
// visibility step queues behind fn.
func (m *Manager) WithStampBarrier(fn func()) {
	m.stampMu.Lock()
	defer m.stampMu.Unlock()
	fn()
}

// SeedClock advances the commit clock to at least epoch. Recovery uses it
// after mounting a checkpoint image so new commit epochs continue past the
// image's epoch instead of restarting from 1 (which would stamp new versions
// below already-restored history).
func (m *Manager) SeedClock(epoch uint64) {
	if !m.cfg.MVCC {
		return
	}
	for {
		cur := m.clock.Load()
		if epoch <= cur || m.clock.CompareAndSwap(cur, epoch) {
			break
		}
	}
	m.smu.Lock()
	if epoch > m.lastGC {
		m.lastGC = epoch
	}
	m.smu.Unlock()
}

// Exec runs one statement inside the transaction: acquire locks (strict 2PL
// — held to commit/abort), capture before-images, execute, and buffer undo
// and redo. A lock failure (deadlock victim, timeout) rolls the whole
// transaction back and returns *AbortedError; a plain execution failure
// leaves the transaction active.
func (m *Manager) Exec(ctx context.Context, tx *Txn, req *abdl.Request) (*kdb.Result, time.Duration, error) {
	tx.mu.Lock()
	if tx.state != Active {
		tx.mu.Unlock()
		return nil, 0, ErrNotActive
	}
	if isMutation(req.Kind) && !tx.readOnly {
		tx.touched = true
	}
	tx.mu.Unlock()
	if tx.readOnly {
		return m.execSnapshot(ctx, tx, req)
	}
	if err := m.acquirePlan(tx, lockPlan(req)); err != nil {
		m.rollback(tx)
		return nil, 0, &AbortedError{ID: tx.id, Cause: err}
	}
	undo, err := m.beforeImages(ctx, req)
	if err != nil {
		return nil, 0, err
	}
	res, d, err := m.cfg.Exec.ExecTimedCtx(ctx, m.stampTxnID(tx, req))
	if err != nil {
		// The statement failed but the transaction survives. A broadcast
		// may have applied on some backends before failing; keeping the
		// before-images lets a later ABORT repair even that.
		tx.mu.Lock()
		tx.undo = append(tx.undo, undo...)
		tx.mu.Unlock()
		return nil, d, err
	}
	if isMutation(req.Kind) {
		if req.Kind == abdl.Insert {
			for _, id := range res.Affected {
				undo = append(undo, undoRec{id: id, file: req.Record.File()})
			}
		}
		tx.mu.Lock()
		tx.undo = append(tx.undo, undo...)
		tx.redo = append(tx.redo, m.journalRec(req, res))
		tx.mu.Unlock()
	}
	return res, d, nil
}

// ExecBatch runs a whole request round inside the transaction: the union of
// every request's locks is acquired up front, before-images are captured for
// each mutation, and the round executes as one kernel batch.
func (m *Manager) ExecBatch(ctx context.Context, tx *Txn, reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error) {
	tx.mu.Lock()
	if tx.state != Active {
		tx.mu.Unlock()
		return nil, 0, ErrNotActive
	}
	if !tx.readOnly {
		for _, req := range reqs {
			if isMutation(req.Kind) {
				tx.touched = true
				break
			}
		}
	}
	tx.mu.Unlock()
	if tx.readOnly {
		return m.execSnapshotBatch(ctx, tx, reqs)
	}
	merged := make(map[string]Mode)
	for _, req := range reqs {
		for _, st := range lockPlan(req) {
			merged[st.name] = lub(merged[st.name], st.mode)
		}
	}
	names := make([]string, 0, len(merged))
	for name := range merged {
		names = append(names, name)
	}
	sort.Strings(names) // root ("") sorts first
	plan := make([]lockStep, 0, len(names))
	for _, name := range names {
		plan = append(plan, lockStep{name, merged[name]})
	}
	if err := m.acquirePlan(tx, plan); err != nil {
		m.rollback(tx)
		return nil, 0, &AbortedError{ID: tx.id, Cause: err}
	}
	var undo []undoRec
	for _, req := range reqs {
		u, err := m.beforeImages(ctx, req)
		if err != nil {
			return nil, 0, err
		}
		undo = append(undo, u...)
	}
	stamped := reqs
	if m.cfg.MVCC {
		stamped = make([]*abdl.Request, len(reqs))
		for i, req := range reqs {
			stamped[i] = m.stampTxnID(tx, req)
		}
	}
	results, d, err := m.cfg.Exec.ExecBatchCtx(ctx, stamped)
	if err != nil {
		tx.mu.Lock()
		tx.undo = append(tx.undo, undo...)
		tx.mu.Unlock()
		return nil, d, err
	}
	var redo []JournalRec
	for i, req := range reqs {
		if !isMutation(req.Kind) {
			continue
		}
		if req.Kind == abdl.Insert {
			for _, id := range results[i].Affected {
				undo = append(undo, undoRec{id: id, file: req.Record.File()})
			}
		}
		redo = append(redo, m.journalRec(req, results[i]))
	}
	tx.mu.Lock()
	tx.undo = append(tx.undo, undo...)
	tx.redo = append(tx.redo, redo...)
	tx.mu.Unlock()
	return results, d, nil
}

// Commit commits the transaction. Read-only transactions release their locks
// and return; writers join the group-commit queue, where the first committer
// becomes the flush leader and persists every queued commit record with a
// single sink flush.
func (m *Manager) Commit(tx *Txn) error {
	tx.mu.Lock()
	if tx.state != Active {
		tx.mu.Unlock()
		return ErrNotActive
	}
	redo := tx.redo
	wrote := tx.touched
	tx.state = Committed
	tx.undo, tx.redo = nil, nil
	tx.mu.Unlock()

	if tx.readOnly {
		m.endSnapshot(tx)
		m.commits.Add(1)
		m.mCommits.Inc()
		return nil
	}
	var err error
	if (len(redo) > 0 && m.cfg.Sink != nil) || (wrote && m.cfg.MVCC) {
		err = m.groupCommit(CommitRecord{ID: tx.id, Entries: redo})
	}
	m.locks.releaseAll(tx)
	m.commits.Add(1)
	m.mCommits.Inc()
	return err
}

// groupCommit enqueues the record and either waits for the current leader's
// next flush or becomes the leader and drains the queue.
func (m *Manager) groupCommit(rec CommitRecord) error {
	req := commitReq{rec: rec, done: make(chan error, 1)}
	m.cmu.Lock()
	m.queue = append(m.queue, req)
	if m.flushing {
		m.cmu.Unlock()
		return <-req.done
	}
	m.flushing = true
	for len(m.queue) > 0 {
		batch := m.queue
		m.queue = nil
		m.cmu.Unlock()
		recs := make([]CommitRecord, len(batch))
		for i, b := range batch {
			recs[i] = b.rec
		}
		var err error
		if m.cfg.Sink != nil {
			err = m.cfg.Sink.WriteCommits(recs)
			if err == nil {
				if pr, ok := m.cfg.Sink.(PosReader); ok {
					// Distribute the batch's end position onto each record:
					// the sink counts committed data entries, batches are
					// serialized by the leader, and aborts write no data
					// entries, so walking the batch backwards from the end
					// recovers every record's exact journal position.
					pos := pr.JournalPos()
					for i := len(recs) - 1; i >= 0; i-- {
						recs[i].Pos = pos
						pos -= uint64(len(recs[i].Entries))
					}
				}
			}
		}
		if err == nil && m.cfg.MVCC {
			// Durable first, visible second: pending versions are stamped
			// with one epoch for the whole batch only after the sink flush.
			// The stamp barrier keeps checkpoint fences off half-stamped
			// batches; on publication the sink learns which of its positions
			// the new epoch corresponds to.
			m.stampMu.Lock()
			if epoch, ok := m.stampEpoch(recs); ok {
				if noter, isNoter := m.cfg.Sink.(EpochNoter); isNoter {
					noter.NoteEpoch(epoch)
				}
				for i := range recs {
					recs[i].Epoch = epoch
				}
			}
			m.stampMu.Unlock()
		}
		if err == nil {
			m.publishCommits(recs)
		}
		for _, b := range batch {
			b.done <- err
		}
		m.cmu.Lock()
	}
	m.flushing = false
	m.cmu.Unlock()
	return <-req.done
}

// Abort rolls the transaction back: applied mutations are undone in reverse
// order and all locks release. Aborting a finished transaction is a no-op.
func (m *Manager) Abort(tx *Txn) error {
	return m.rollback(tx)
}

func (m *Manager) rollback(tx *Txn) error {
	tx.mu.Lock()
	if tx.state != Active {
		tx.mu.Unlock()
		return nil
	}
	undo := tx.undo
	touched := tx.touched
	tx.state = Aborted
	tx.undo, tx.redo = nil, nil
	tx.mu.Unlock()

	if tx.readOnly {
		m.endSnapshot(tx)
		m.aborts.Add(1)
		m.mAborts.Inc()
		return nil
	}
	if touched {
		// Drop the pending versions before undo repairs the live state, so a
		// later commit epoch can never resurrect them.
		m.discardVersions(tx)
	}
	err := m.applyUndo(undo)
	m.locks.releaseAll(tx)
	m.aborts.Add(1)
	m.mAborts.Inc()
	return err
}

// applyUndo reverses the transaction's applied mutations, newest first. Each
// step deletes the current record under the key (a broadcast reaches every
// backend and replica) and, for DELETE/UPDATE images, re-inserts the
// before-image pinned to the same key.
func (m *Manager) applyUndo(undo []undoRec) error {
	ctx := context.Background()
	var firstErr error
	for i := len(undo) - 1; i >= 0; i-- {
		u := undo[i]
		del := abdl.NewDelete(abdm.And(abdm.Predicate{
			Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String(u.file),
		}))
		del.ForceID = u.id
		del.NoVersion = true // undo restores history, it doesn't write new history
		if _, _, err := m.cfg.Exec.ExecTimedCtx(ctx, del); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("txn: undo delete of record %d: %w", u.id, err)
		}
		if u.image != nil {
			ins := abdl.NewInsert(u.image)
			ins.ForceID = u.id
			ins.NoVersion = true
			if _, _, err := m.cfg.Exec.ExecTimedCtx(ctx, ins); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("txn: undo restore of record %d: %w", u.id, err)
			}
		}
	}
	return firstErr
}
