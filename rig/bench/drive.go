package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"mlds/client"
	"mlds/internal/core"
	"mlds/internal/server"
	"mlds/internal/txn"
)

// Clients is the number of TCP connections and of closed-loop clients, and
// the GOMAXPROCS the rig runs under: one per core, at most four.
func Clients() int { return min(runtime.NumCPU(), 4) }

// maxTxnRetries bounds how often an aborted transaction is run again before
// the operation counts as failed.
const maxTxnRetries = 5

// bed is one served system with the rig's clients connected to it.
type bed struct {
	w     workload
	sys   *core.System
	srv   *server.Server
	conns []*client.Client
	users []*user
	dir   string // this bed's files
	base  string // the run's scratch directory, removed by closeAll

	errMu sync.Mutex
	errs  []string // the first few failures, for the report
}

// user is one simulated user: a generator and one session per language.
type user struct {
	id   int
	gen  generator
	sess map[string]*client.Session
}

// raise builds the bed: the workload's system, a server on a loopback port
// (the call cmd/mldsserver makes), C client connections, and every user's
// sessions. The caller times it as set-up.
func raise(w workload, dir string, seed int64, tracing bool) (*bed, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	sys, err := w.build(dir, tracing)
	if err != nil {
		return nil, fmt.Errorf("build: %w", err)
	}
	b := &bed{w: w, sys: sys, dir: dir}
	b.srv, err = server.Listen("127.0.0.1:0", sys, server.Config{})
	if err != nil {
		b.close()
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < Clients(); i++ {
		c, err := client.Dial(ctx, b.srv.Addr(), client.WithTimeout(60*time.Second))
		if err != nil {
			b.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		b.conns = append(b.conns, c)
	}
	for u := 0; u < Users; u++ {
		usr := &user{id: u, gen: w.newUser(u, userRNG(seed, u)), sess: make(map[string]*client.Session)}
		for _, sp := range w.sessions() {
			s, err := b.conns[u%len(b.conns)].Open(ctx, sp.db, sp.lang)
			if err != nil {
				b.close()
				return nil, fmt.Errorf("open %s on %s: %w", sp.lang, sp.db, err)
			}
			usr.sess[sp.lang] = s
		}
		b.users = append(b.users, usr)
	}
	return b, nil
}

// close tears the bed down: connections, server, system, files.
func (b *bed) close() {
	for _, c := range b.conns {
		_ = c.Close()
	}
	if b.srv != nil {
		_ = b.srv.Close()
	}
	if b.sys != nil {
		closeSystem(b.sys)
	}
	_ = os.RemoveAll(b.dir)
}

// closeAll closes the bed and removes the run's scratch directory.
func (b *bed) closeAll() {
	b.close()
	if b.base != "" {
		_ = os.RemoveAll(b.base)
	}
}

// closeSystem closes a system and the page files of its backed stores.
func closeSystem(sys *core.System) {
	var dbs []*core.Database
	for _, info := range sys.Databases() {
		if db, ok := sys.Database(info.Name); ok {
			dbs = append(dbs, db)
		}
	}
	sys.Close()
	for _, db := range dbs {
		for _, st := range stores(db) {
			_ = st.CloseBacking()
		}
	}
}

func (b *bed) noteErr(format string, args ...any) {
	b.errMu.Lock()
	defer b.errMu.Unlock()
	if len(b.errs) < 8 {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// runOp executes one operation on the user's sessions and checks every
// reply. It reports whether the operation succeeded and how many times its
// transaction was aborted and run again.
func (b *bed) runOp(ctx context.Context, u *user, o *op, sp *spanLog) (ok bool, retries int) {
	for attempt := 0; ; attempt++ {
		err := b.attempt(ctx, u, o, sp)
		if err == nil {
			if o.applied != nil {
				o.applied()
			}
			return true, attempt
		}
		var aborted *txn.AbortedError
		if o.txn && errors.As(err, &aborted) && attempt < maxTxnRetries {
			continue // the manager already rolled it back
		}
		b.noteErr("user %d %s: %v", u.id, o.kind, err)
		if o.txn {
			if s := u.sess[o.stmts[0].lang]; s.InTxn() {
				_, _ = s.ExecuteCtx(ctx, "ROLLBACK WORK")
			}
		}
		return false, attempt
	}
}

func (b *bed) attempt(ctx context.Context, u *user, o *op, sp *spanLog) error {
	for i := range o.stmts {
		st := &o.stmts[i]
		t0 := time.Now()
		out, err := u.sess[st.lang].ExecuteCtx(ctx, st.text)
		if sp != nil {
			sp.client(u.id, o.kind, st.lang, t0, time.Now())
		}
		if err != nil {
			return fmt.Errorf("%q: %w", st.text, err)
		}
		if st.check != nil {
			if err := st.check(out.Rendered); err != nil {
				return fmt.Errorf("%q: wrong reply: %w", st.text, err)
			}
		}
	}
	return nil
}

// phase is what one timed phase measured.
type phase struct {
	start   time.Time
	elapsed time.Duration
	ops     int
	failed  int
	retries int
	lat     []int64 // per operation, nanoseconds (closed: from send; open: from due)
	end     []int64 // completion time of each operation, ns since the phase began
	late    []int64 // open loop: how late the generator sent, nanoseconds
}

func (p *phase) merge(q *phase) {
	p.ops += q.ops
	p.failed += q.failed
	p.retries += q.retries
	p.lat = append(p.lat, q.lat...)
	p.end = append(p.end, q.end...)
	p.late = append(p.late, q.late...)
}

// closedLoop runs C clients for d, each sending its next operation only
// after the previous reply, taking its users round robin.
func (b *bed) closedLoop(d time.Duration, sp *spanLog) *phase {
	ctx := context.Background()
	c := len(b.conns)
	parts := make([]*phase, c)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i := 0; i < c; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &phase{lat: make([]int64, 0, 1<<16), end: make([]int64, 0, 1<<16)}
			parts[i] = p
			var mine []*user // the users on this client's connection
			for _, u := range b.users {
				if u.id%c == i {
					mine = append(mine, u)
				}
			}
			for n := 0; ; n++ {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				u := mine[n%len(mine)]
				ok, retries := b.runOp(ctx, u, u.gen.next(), sp)
				t1 := time.Now()
				p.ops++
				p.retries += retries
				if !ok {
					p.failed++
				}
				p.lat = append(p.lat, int64(t1.Sub(t0)))
				p.end = append(p.end, int64(t1.Sub(start)))
			}
		}(i)
	}
	wg.Wait()
	total := &phase{start: start, elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// openLoop runs every user on a fixed schedule for d: arrival k of the
// whole system is due at k/rate and belongs to user k mod Users. A user
// sends an operation when it is due and its previous one has completed, and
// every operation is timed from when it was due, so the wait a stall imposes
// on the operations queued behind it counts. stall, when set, is called
// before each send (tests use it to inject a delay).
func (b *bed) openLoop(d time.Duration, rate float64, stall func(user, k int)) *phase {
	ctx := context.Background()
	parts := make([]*phase, len(b.users))
	start := time.Now().Add(10 * time.Millisecond)
	gap := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	for i, u := range b.users {
		wg.Add(1)
		go func(i int, u *user) {
			defer wg.Done()
			p := &phase{}
			parts[i] = p
			free := start // when the user's previous operation completed
			for k := i; ; k += len(b.users) {
				offset := time.Duration(k) * gap
				if offset >= d {
					return
				}
				due := start.Add(offset)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				if stall != nil {
					stall(i, k)
				}
				sent := time.Now()
				if !free.After(due) {
					// The user was idle when the operation came due, so any
					// delay in sending it is the generator's own.
					p.late = append(p.late, int64(sent.Sub(due)))
				}
				ok, retries := b.runOp(ctx, u, u.gen.next(), nil)
				free = time.Now()
				p.ops++
				p.retries += retries
				if !ok {
					p.failed++
				}
				p.lat = append(p.lat, int64(free.Sub(due)))
			}
		}(i, u)
	}
	wg.Wait()
	total := &phase{start: start, elapsed: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}
