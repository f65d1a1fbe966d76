// Package kc implements the kernel controller subsystem (KCS) of a language
// interface: it forwards the ABDL requests produced by the kernel mapping
// system to the kernel database system (MBDS), collects results into result
// buffers, allocates logical database keys, and keeps a trace of every
// request it executes — the trace is what the experiment goldens compare
// against the thesis's worked translations.
//
// Every request executes inside a transaction. Requests whose context
// carries one (txn.FromContext) join it; all other callers are auto-commit —
// the controller wraps each request (or batch) in its own transaction and
// commits it immediately, so single-statement traffic pays one group-commit
// flush and gains 2PL isolation without code changes.
package kc

import (
	"bufio"
	"context"
	"strconv"
	"sync"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/currency"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
	"mlds/internal/obs"
	"mlds/internal/txn"
)

// Controller mediates between one language interface and the kernel
// database system.
type Controller struct {
	sys  *mbds.System
	txns *txn.Manager

	mu      sync.Mutex
	nextKey currency.Key
	trace   []string
	tracing bool
	simTime time.Duration
	jw      *bufio.Writer
	jbuf    []byte // scratch the journal entries of one write are framed into

	// Fuzzy-checkpoint bookkeeping (see checkpoint.go). jEntries counts
	// committed data entries ever written to the journal, jMaxKey the key
	// allocator's high water among them; jPairs maps each published commit
	// epoch to the journal position its batch flushed at. jf is the journal's
	// file handle when attached via AttachJournalFile — what rotation swaps.
	jEntries uint64
	jNoted   uint64 // jEntries as of the last NoteEpoch (or recovery seed)
	jMaxKey  int64
	jPairs   map[uint64]ckptPair
	lastCkpt uint64
	jf       *JournalFile

	// Background checkpointer (StartCheckpointer).
	ckptStop chan struct{}
	ckptDone chan struct{}
}

// Option configures a controller.
type Option func(*options)

type options struct {
	metrics     *obs.Registry
	db          string
	lockTimeout time.Duration
}

// WithMetrics labels the controller's transaction metrics with the database
// name and registers them on reg.
func WithMetrics(reg *obs.Registry, db string) Option {
	return func(o *options) { o.metrics, o.db = reg, db }
}

// WithLockTimeout bounds every transaction lock wait.
func WithLockTimeout(d time.Duration) Option {
	return func(o *options) { o.lockTimeout = d }
}

// New builds a controller over a kernel database system.
func New(sys *mbds.System, opts ...Option) *Controller {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	c := &Controller{sys: sys}
	c.txns = txn.NewManager(txn.Config{
		Exec:        sys,
		Sink:        journalSink{c},
		KeyPos:      c.keyPos,
		LockTimeout: o.lockTimeout,
		Metrics:     o.metrics,
		DB:          o.db,
		MVCC:        true,
	})
	return c
}

// System exposes the underlying kernel database system.
func (c *Controller) System() *mbds.System { return c.sys }

// Txns exposes the controller's transaction manager. Sessions use it to
// begin explicit transactions and to commit or roll them back.
func (c *Controller) Txns() *txn.Manager { return c.txns }

// SubscribeCommits streams the manager's committed redo logs with the given
// channel buffer. Chaos drills and failover oracles use it to know exactly
// which writes were acknowledged as committed; close the subscription when
// done.
func (c *Controller) SubscribeCommits(buf int) *txn.CommitSub {
	return c.txns.SubscribeCommits(buf)
}

// keyPos reports the key allocator's position for journal records.
func (c *Controller) keyPos() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return int64(c.nextKey)
}

// Exec validates and executes one ABDL request, recording it in the trace.
func (c *Controller) Exec(req *abdl.Request) (*kdb.Result, error) {
	return c.ExecCtx(context.Background(), req)
}

// ExecCtx is Exec carrying a request context. When the context holds an obs
// trace, the request becomes a "kc.exec" span (with the rendered ABDL as an
// attribute and the simulated kernel time charged to it) whose children are
// the per-backend fan-out spans recorded by MBDS. When the context carries a
// transaction the statement joins it — locks accumulate, undo is buffered,
// and the mutation reaches the journal only if that transaction commits;
// otherwise the statement runs auto-commit.
func (c *Controller) ExecCtx(ctx context.Context, req *abdl.Request) (*kdb.Result, error) {
	c.mu.Lock()
	if c.tracing {
		c.trace = append(c.trace, req.String())
	}
	c.mu.Unlock()
	ctx, span := obs.StartSpan(ctx, "kc.exec")
	if span != nil { // untraced requests do not pay for the rendering
		span.SetAttr("abdl", req.String())
	}
	var (
		res *kdb.Result
		t   time.Duration
		err error
	)
	if tx, ok := txn.FromContext(ctx); ok {
		res, t, err = c.txns.Exec(ctx, tx, req)
	} else {
		res, t, err = c.execAuto(ctx, req)
	}
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return nil, err
	}
	span.AddSim(t)
	span.End()
	c.mu.Lock()
	c.simTime += t
	c.mu.Unlock()
	return res, nil
}

// execAuto wraps one statement in its own transaction and commits it. A
// commit whose journal write fails surfaces the store/journal divergence as
// a JournalError carrying the applied result (the data is durable in the
// kernel; the recovery log is what lost it).
func (c *Controller) execAuto(ctx context.Context, req *abdl.Request) (*kdb.Result, time.Duration, error) {
	tx := c.txns.Begin()
	res, t, err := c.txns.Exec(ctx, tx, req)
	if err != nil {
		c.txns.Abort(tx)
		return nil, t, err
	}
	if err := c.txns.Commit(tx); err != nil {
		return nil, t, &JournalError{Applied: []*kdb.Result{res}, Err: err}
	}
	return res, t, nil
}

// ExecBatch validates and executes a slice of ABDL requests as one kernel
// round, recording each in the trace and journalling every mutation in one
// pass.
func (c *Controller) ExecBatch(reqs []*abdl.Request) ([]*kdb.Result, error) {
	return c.ExecBatchCtx(context.Background(), reqs)
}

// ExecBatchCtx is ExecBatch carrying a request context. The round becomes a
// single "kc.batch" span; its children are MBDS's per-backend
// "backend.exec" spans. The batch joins the context's transaction if one is
// present; otherwise it runs as one auto-committed transaction — a single
// journal flush per batch, with a journal failure surfacing as one
// JournalError carrying every applied result.
func (c *Controller) ExecBatchCtx(ctx context.Context, reqs []*abdl.Request) ([]*kdb.Result, error) {
	c.mu.Lock()
	if c.tracing {
		for _, req := range reqs {
			c.trace = append(c.trace, req.String())
		}
	}
	c.mu.Unlock()
	ctx, span := obs.StartSpan(ctx, "kc.batch")
	if span != nil {
		span.SetAttr("requests", strconv.Itoa(len(reqs)))
	}
	var (
		results []*kdb.Result
		t       time.Duration
		err     error
	)
	if tx, ok := txn.FromContext(ctx); ok {
		results, t, err = c.txns.ExecBatch(ctx, tx, reqs)
	} else {
		results, t, err = c.execBatchAuto(ctx, reqs)
	}
	if err != nil {
		span.SetAttr("error", err.Error())
		span.End()
		return nil, err
	}
	span.AddSim(t)
	span.End()
	c.mu.Lock()
	c.simTime += t
	c.mu.Unlock()
	return results, nil
}

func (c *Controller) execBatchAuto(ctx context.Context, reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error) {
	tx := c.txns.Begin()
	results, t, err := c.txns.ExecBatch(ctx, tx, reqs)
	if err != nil {
		c.txns.Abort(tx)
		return nil, t, err
	}
	if err := c.txns.Commit(tx); err != nil {
		return nil, t, &JournalError{Applied: results, Err: err}
	}
	return results, t, nil
}

// NextKey allocates a fresh logical database key.
func (c *Controller) NextKey() currency.Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextKey++
	return c.nextKey
}

// SeedKeys advances the key allocator past max, so bulk-loaded keys and
// session-allocated keys never collide.
func (c *Controller) SeedKeys(max currency.Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if max > c.nextKey {
		c.nextKey = max
	}
}

// StartTrace begins recording executed requests, clearing any prior trace.
func (c *Controller) StartTrace() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracing = true
	c.trace = nil
}

// Trace returns the requests executed since StartTrace.
func (c *Controller) Trace() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.trace...)
}

// StopTrace stops recording.
func (c *Controller) StopTrace() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracing = false
}

// SimTime reports the accumulated simulated kernel response time.
func (c *Controller) SimTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.simTime
}
