// Package kc implements the kernel controller subsystem (KCS) of a language
// interface: it forwards the ABDL requests produced by the kernel mapping
// system to the kernel database system (MBDS), collects results into result
// buffers, allocates logical database keys, and keeps a trace of every
// request it executes — the trace is what the experiment goldens compare
// against the thesis's worked translations.
//
// Every request executes inside a transaction. Requests whose context
// carries one (txn.FromContext) join it; all other callers are auto-commit —
// the controller wraps each request in its own transaction and
// commits it immediately, so single-statement traffic pays one group-commit
// flush and gains 2PL isolation without code changes.
package kc

import (
	"bufio"
	"context"
	"sync"
	"sync/atomic"
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

	// The statement path takes no mutex: the key allocator, the trace
	// switch and the simulated-time total are atomics, and mu — which the
	// journal holds across its write — is taken only to append to a trace.
	// mu guards every field below it.
	nextKey atomic.Int64 // a currency.Key
	tracing atomic.Bool
	simTime atomic.Int64 // a time.Duration

	mu    sync.Mutex
	trace []string
	jw    *bufio.Writer
	jbuf  []byte // scratch the journal entries of one write are framed into

	// Fuzzy-checkpoint bookkeeping (see checkpoint.go). jEntries counts
	// committed data entries ever written to the journal, jMaxKey the key
	// allocator's high water among them. jf is the journal's file handle
	// when attached via AttachJournalFile — what rotation swaps.
	jEntries uint64
	jNoted   uint64 // jEntries as of the last NoteEpoch (or recovery seed)
	jMaxKey  int64
	lastCkpt uint64
	jf       *JournalFile
}

// Option configures a controller.
type Option func(*options)

type options struct {
	metrics *obs.Registry
	db      string
}

// WithMetrics labels the controller's transaction metrics with the database
// name and registers them on reg.
func WithMetrics(reg *obs.Registry, db string) Option {
	return func(o *options) { o.metrics, o.db = reg, db }
}

// New builds a controller over a kernel database system.
func New(sys *mbds.System, opts ...Option) *Controller {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	c := &Controller{sys: sys}
	c.txns = txn.NewManager(txn.Config{
		Exec:    sys,
		Sink:    journalSink{c},
		KeyPos:  c.keyPos,
		Metrics: o.metrics,
		DB:      o.db,
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
func (c *Controller) keyPos() int64 { return c.nextKey.Load() }

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
	if c.tracing.Load() {
		c.record(req)
	}
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
	c.simTime.Add(int64(t))
	if m, ok := ctx.Value(simKey{}).(*SimMeter); ok {
		m.sim.Add(int64(t))
	}
	return res, nil
}

// simKey is the context key under which a SimMeter answers Value.
type simKey struct{}

// SimMeter is a context that adds up the simulated kernel time of every
// request the controller executes under it or a context derived from it. A
// session wraps each statement's context in one, so the statement reads its
// own kernel time however many other sessions run at once; SimTime is the
// controller-wide total.
type SimMeter struct {
	context.Context
	sim atomic.Int64 // a time.Duration
}

// NewSimMeter starts a meter at zero over ctx.
func NewSimMeter(ctx context.Context) *SimMeter { return &SimMeter{Context: ctx} }

// Value answers simKey with the meter itself and defers every other key to
// the parent context.
func (m *SimMeter) Value(key any) any {
	if key == (simKey{}) {
		return m
	}
	return m.Context.Value(key)
}

// Sim reports the simulated kernel time charged so far.
func (m *SimMeter) Sim() time.Duration { return time.Duration(m.sim.Load()) }

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
		return nil, t, &JournalError{Applied: res, Err: err}
	}
	return res, t, nil
}

// NextKey allocates a fresh logical database key.
func (c *Controller) NextKey() currency.Key { return c.nextKey.Add(1) }

// SeedKeys advances the key allocator past max, so bulk-loaded keys and
// session-allocated keys never collide.
func (c *Controller) SeedKeys(max currency.Key) {
	for {
		cur := c.nextKey.Load()
		if max <= cur || c.nextKey.CompareAndSwap(cur, max) {
			return
		}
	}
}

// record appends a request to the trace. A request that read the switch
// just before StopTrace may still land; one after StartTrace always does.
func (c *Controller) record(req *abdl.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = append(c.trace, req.String())
}

// StartTrace begins recording executed requests, clearing any prior trace.
func (c *Controller) StartTrace() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trace = nil
	c.tracing.Store(true)
}

// Trace returns the requests executed since StartTrace.
func (c *Controller) Trace() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.trace...)
}

// StopTrace stops recording.
func (c *Controller) StopTrace() { c.tracing.Store(false) }

// SimTime reports the accumulated simulated kernel response time.
func (c *Controller) SimTime() time.Duration { return time.Duration(c.simTime.Load()) }
