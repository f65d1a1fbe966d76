package txn

import (
	"cmp"
	"errors"
	"sync"
	"time"
)

// Mode is a lock mode of the multi-granularity scheme. Transactions lock the
// whole store (the root resource) in an intention mode and then either an
// ABDM file in S or X, or the file in the intention mode and one of its
// lock-key values in S or X; requests whose qualification carries no FILE
// predicate can touch any file, so they lock the root itself in S or X.
type Mode int

// Lock modes, weakest to strongest. SIX arises only as the upgrade of S+IX
// on the root (a transaction that scanned every file and then wrote one).
const (
	modeNone Mode = iota
	IS
	IX
	S
	SIX
	X
)

var modeNames = [...]string{"none", "IS", "IX", "S", "SIX", "X"}

// String names the mode.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "mode(?)"
}

// compatible reports whether two transactions may hold a and b on the same
// resource at once — the standard multi-granularity compatibility matrix.
func compatible(a, b Mode) bool {
	switch a {
	case IS:
		return b != X
	case IX:
		return b == IS || b == IX
	case S:
		return b == IS || b == S
	case SIX:
		return b == IS
	case X:
		return false
	}
	return true
}

// lub is the least mode covering both a and b: the mode a holder must
// convert to when it already holds a and requests b.
func lub(a, b Mode) Mode {
	if a == b {
		return a
	}
	if a > b {
		a, b = b, a
	}
	switch {
	case a == modeNone:
		return b
	case b == X:
		return X
	case a == IS:
		return b
	case a == IX && b == S:
		return SIX
	case a == IX && b == SIX:
		return SIX
	case a == S && b == SIX:
		return SIX
	}
	return X
}

// lockName names one lockable resource of the three-level hierarchy: the
// root (the zero name — ABDM file names are never empty, so it cannot
// collide with a file), a file (kind nameFile), or one value of a file's lock
// key (kind nameNum or nameStr). It is a comparable struct so that naming a
// lock allocates nothing.
type lockName struct {
	file string
	kind nameKind
	num  uint64 // nameNum: the float64 bits of the value
	str  string // nameStr: the value's bytes
}

type nameKind uint8

const (
	nameFile nameKind = iota
	nameNum
	nameStr
)

// rootResource is the lock name of the whole store.
var rootResource = lockName{}

// fileLock names a file.
func fileLock(file string) lockName { return lockName{file: file} }

// compareNames orders lock names root first, each file before its values:
// the order a plan acquires in, parents before children, so that every
// transaction takes its locks in one global order.
func compareNames(a, b lockName) int {
	if c := cmp.Compare(a.file, b.file); c != 0 {
		return c
	}
	if c := cmp.Compare(a.kind, b.kind); c != 0 {
		return c
	}
	if c := cmp.Compare(a.num, b.num); c != 0 {
		return c
	}
	return cmp.Compare(a.str, b.str)
}

// Lock-wait failures. Both abort the waiting transaction: a deadlock victim
// is chosen by the wait-for-graph detector (the youngest transaction of the
// cycle), a timeout is the fallback for waits the detector cannot resolve.
var (
	// ErrDeadlock reports the transaction was chosen as a deadlock victim.
	ErrDeadlock = errors.New("txn: aborted as deadlock victim")
	// ErrLockTimeout reports a lock wait exceeded the manager's timeout.
	ErrLockTimeout = errors.New("txn: lock wait timeout")
)

// waiter is one blocked lock request.
type waiter struct {
	tx      *Txn
	res     *resource
	target  Mode // lub of the held and requested modes
	ready   chan struct{}
	err     error // set before ready is closed when the wait fails
	granted bool
}

// resource is one lockable unit: the root, one ABDM file or one lock-key
// value of a file.
type resource struct {
	name    lockName
	holders []holder // few: the transactions in flight at most
	queue   []*waiter
}

// holder is one transaction's granted mode on a resource.
type holder struct {
	tx   uint64
	mode Mode
}

// heldBy returns the mode the transaction holds on r (modeNone if none).
func (r *resource) heldBy(txID uint64) Mode {
	for _, h := range r.holders {
		if h.tx == txID {
			return h.mode
		}
	}
	return modeNone
}

// grant records tx as holding mode on r, converting a lock it already holds;
// a fresh lock joins the transaction's held set.
func (r *resource) grant(tx *Txn, mode Mode) {
	for i := range r.holders {
		if r.holders[i].tx == tx.id {
			r.holders[i].mode = mode
			return
		}
	}
	r.holders = append(r.holders, holder{tx.id, mode})
	tx.held = append(tx.held, r)
}

// drop removes the transaction's lock on r.
func (r *resource) drop(txID uint64) {
	for i, h := range r.holders {
		if h.tx == txID {
			last := len(r.holders) - 1
			r.holders[i] = r.holders[last]
			r.holders = r.holders[:last]
			return
		}
	}
}

// lockTable is the strict-2PL lock manager: locks accumulate per transaction
// and release only at commit or abort (releaseAll).
type lockTable struct {
	mu      sync.Mutex
	res     map[lockName]*resource
	waiting map[uint64]*waiter // one blocked request per transaction
	timeout time.Duration

	// free holds released resources for reuse: value locks come and go with
	// every transaction, and recycling them keeps the lock path free of
	// allocation in steady state.
	free []*resource

	// onWait observes every completed lock wait (granted or not);
	// onDeadlock fires once per detected cycle. Both may be nil.
	onWait     func(d time.Duration)
	onDeadlock func()
}

func newLockTable(timeout time.Duration) *lockTable {
	return &lockTable{
		res:     make(map[lockName]*resource),
		waiting: make(map[uint64]*waiter),
		timeout: timeout,
	}
}

// maxFree bounds the recycled resources kept: enough for the locks of the
// transactions in flight, small enough that a burst leaves little behind.
const maxFree = 256

func (lt *lockTable) resource(name lockName) *resource {
	r := lt.res[name]
	if r == nil {
		if n := len(lt.free); n > 0 {
			r = lt.free[n-1]
			lt.free = lt.free[:n-1]
		} else {
			r = &resource{}
		}
		r.name = name
		lt.res[name] = r
	}
	return r
}

// grantable reports whether tx may hold target on r alongside every other
// current holder (its own holder entry, if upgrading, is ignored).
func (r *resource) grantable(txID uint64, target Mode) bool {
	for _, h := range r.holders {
		if h.tx != txID && !compatible(target, h.mode) {
			return false
		}
	}
	return true
}

// queueBlocks reports whether a fresh request for target must queue behind a
// waiter it conflicts with. Without this check a stream of S requests can be
// granted past a queued X-upgrade forever — each S holder deadlocks against
// the upgrader, aborts, retries, and re-takes S while the upgrader starves:
// a livelock with no global progress. FIFO fairness over conflicting
// requests restores progress; lock conversions bypass the queue (they
// already hold the resource, so making them wait behind fresh requests
// would deadlock against themselves).
func (r *resource) queueBlocks(target Mode) bool {
	for _, w := range r.queue {
		if !compatible(target, w.target) {
			return true
		}
	}
	return false
}

// acquire takes the lock, blocking until it is granted, the transaction is
// chosen as a deadlock victim, or the wait times out. Re-acquiring a covered
// mode is free; a stronger request converts the held lock.
func (lt *lockTable) acquire(tx *Txn, name lockName, want Mode) error {
	lt.mu.Lock()
	r := lt.resource(name)
	held := r.heldBy(tx.id)
	target := lub(held, want)
	if target == held {
		lt.mu.Unlock()
		return nil
	}
	if r.grantable(tx.id, target) && (held != modeNone || !r.queueBlocks(target)) {
		r.grant(tx, target)
		lt.mu.Unlock()
		return nil
	}
	w := &waiter{tx: tx, res: r, target: target, ready: make(chan struct{})}
	r.queue = append(r.queue, w)
	lt.waiting[tx.id] = w
	if cycle := lt.findCycle(tx.id); len(cycle) > 0 {
		if lt.onDeadlock != nil {
			lt.onDeadlock()
		}
		victim := cycle[0]
		for _, id := range cycle {
			if id > victim {
				victim = id
			}
		}
		vw := lt.waiting[victim]
		lt.removeWaiter(vw)
		vw.err = ErrDeadlock
		close(vw.ready)
		// The victim's vacated queue slot may unblock waiters queued
		// behind it under the FIFO fairness rule.
		lt.sweep(vw.res)
		if victim == tx.id {
			lt.mu.Unlock()
			return ErrDeadlock
		}
	}
	lt.mu.Unlock()

	start := time.Now()
	timer := time.NewTimer(lt.timeout)
	defer timer.Stop()
	select {
	case <-w.ready:
		lt.observeWait(time.Since(start))
		return w.err
	case <-timer.C:
	}
	lt.mu.Lock()
	if w.granted {
		// Granted in the race with the timer: keep the lock.
		lt.mu.Unlock()
		lt.observeWait(time.Since(start))
		return nil
	}
	lt.removeWaiter(w)
	lt.sweep(w.res)
	lt.mu.Unlock()
	lt.observeWait(time.Since(start))
	return ErrLockTimeout
}

func (lt *lockTable) observeWait(d time.Duration) {
	if lt.onWait != nil {
		lt.onWait(d)
	}
}

// removeWaiter drops w from its resource queue and the waiting map.
// Caller holds lt.mu.
func (lt *lockTable) removeWaiter(w *waiter) {
	r := w.res
	for i, q := range r.queue {
		if q == w {
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			break
		}
	}
	if lt.waiting[w.tx.id] == w {
		delete(lt.waiting, w.tx.id)
	}
}

// findCycle looks for a wait-for cycle through the newly blocked
// transaction: an edge runs from each waiter to every holder whose mode
// conflicts with the waiter's target, and to every earlier queued waiter it
// conflicts with (FIFO fairness grants those first, so they are waited on
// just as surely as holders). Only waiting transactions have outgoing
// edges, so every member of a cycle is a waiter. It returns the cycle's
// members (empty when start is not on a cycle). Caller holds lt.mu.
func (lt *lockTable) findCycle(start uint64) []uint64 {
	var path []uint64
	onPath := make(map[uint64]bool)
	visited := make(map[uint64]bool)
	var dfs func(id uint64) []uint64
	var follow func(id, next uint64) []uint64
	dfs = func(id uint64) []uint64 {
		w := lt.waiting[id]
		if w == nil {
			return nil
		}
		path = append(path, id)
		onPath[id] = true
		visited[id] = true
		r := w.res
		for _, h := range r.holders {
			if h.tx == id || compatible(w.target, h.mode) {
				continue
			}
			if c := follow(id, h.tx); c != nil {
				return c
			}
		}
		for _, q := range r.queue {
			if q == w {
				break
			}
			if q.tx.id == id || compatible(w.target, q.target) {
				continue
			}
			if c := follow(id, q.tx.id); c != nil {
				return c
			}
		}
		path = path[:len(path)-1]
		delete(onPath, id)
		return nil
	}
	follow = func(id, next uint64) []uint64 {
		if onPath[next] {
			// Cycle: the path suffix from next.
			for i, p := range path {
				if p == next {
					return append([]uint64(nil), path[i:]...)
				}
			}
		}
		if !visited[next] {
			return dfs(next)
		}
		return nil
	}
	return dfs(start)
}

// releaseAll drops every lock the transaction holds and grants any waiter
// the releases unblocked.
func (lt *lockTable) releaseAll(tx *Txn) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	// Every release lands before any sweep, so a waiter is judged against
	// all of them at once.
	for _, r := range tx.held {
		r.drop(tx.id)
	}
	for _, r := range tx.held {
		lt.sweep(r)
	}
	clear(tx.held)
	tx.held = tx.held[:0]
}

// sweep grants queued waiters that are now compatible with the resource's
// holders, in FIFO order: a still-blocked waiter bars every later fresh
// request (the same fairness rule acquire applies at enqueue), but lock
// conversions may be granted past it — the converter already holds the
// resource, so holding it back can only delay the queue further.
// Caller holds lt.mu.
func (lt *lockTable) sweep(r *resource) {
	blocked := false
	for i := 0; i < len(r.queue); {
		w := r.queue[i]
		conversion := r.heldBy(w.tx.id) != modeNone
		if r.grantable(w.tx.id, w.target) && (conversion || !blocked) {
			r.grant(w.tx, w.target)
			w.granted = true
			r.queue = append(r.queue[:i], r.queue[i+1:]...)
			if lt.waiting[w.tx.id] == w {
				delete(lt.waiting, w.tx.id)
			}
			close(w.ready)
			continue
		}
		blocked = true
		i++
	}
	if len(r.holders) == 0 && len(r.queue) == 0 {
		delete(lt.res, r.name)
		if len(lt.free) < maxFree {
			r.queue = nil
			lt.free = append(lt.free, r)
		}
	}
}
