package cdc

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kc"
	"mlds/internal/mbds"
	"mlds/internal/txn"
)

// chaosSeen accumulates one watcher's view of the stream.
type chaosSeen struct {
	mu   sync.Mutex
	seen map[int64]int // x value -> delivery count
	errs []string
}

func (s *chaosSeen) record(x int64) {
	s.mu.Lock()
	s.seen[x]++
	s.mu.Unlock()
}

func (s *chaosSeen) fail(format string, args ...any) {
	s.mu.Lock()
	s.errs = append(s.errs, fmt.Sprintf(format, args...))
	s.mu.Unlock()
}

// covered reports whether every value in want has been delivered.
func (s *chaosSeen) covered(want map[int64]bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for v := range want {
		if s.seen[v] == 0 {
			return false
		}
	}
	return true
}

// TestCDCChaos is the subsystem's -race chaos tier: concurrent writers (auto
// commits, explicit transactions, aborts) race elastic-membership churn —
// joins, rebalances, drains and outright backend kills — while watchers with
// deliberately starved buffers tail the commit stream through the journal
// resync path. Every acknowledged commit must reach every watcher exactly
// once; no aborted insert may ever surface.
func TestCDCChaos(t *testing.T) {
	dir := abdm.NewDirectory()
	for _, attr := range []string{"x", "y"} {
		if err := dir.DefineAttr(attr, abdm.KindInt); err != nil {
			t.Fatal(err)
		}
	}
	if err := dir.DefineFile("f", []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	cfg := mbds.DefaultConfig(3)
	cfg.Replicas = 1
	cfg.FaultInjection = true
	cfg.BreakerThreshold = 2
	cfg.ProbePeriod = time.Hour // a killed backend stays down until failover
	cfg.FailoverAfter = 60 * time.Millisecond
	cfg.FailoverCheck = 15 * time.Millisecond
	sys, err := mbds.New(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	c := kc.New(sys)
	jf, err := kc.OpenJournalFile(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachJournalFile(jf); err != nil {
		t.Fatal(err)
	}
	defer jf.Close()

	ins := func(x int64) *abdl.Request {
		return abdl.NewInsert(abdm.NewRecord("f",
			abdm.Keyword{Attr: "x", Val: abdm.Int(x)},
			abdm.Keyword{Attr: "y", Val: abdm.Int(x % 7)}))
	}
	retrieve := func(x int64) *abdl.Request {
		return abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(x)}), abdl.AllAttrs)
	}

	// Watchers open before the storm: one starved down to a single-slot
	// subscription (every burst overflows it, forcing journal resyncs), one
	// mildly buffered, one with defaults. All three must converge identically.
	def, err := ParseQuery("WATCH SELECT x, y FROM f WHERE x >= 0")
	if err != nil {
		t.Fatal(err)
	}
	watchOpts := []Options{
		{Buffer: 1, SubBuffer: 1, Poll: 2 * time.Millisecond},
		{Buffer: 4, SubBuffer: 8, Poll: 5 * time.Millisecond},
		{},
	}
	// The starved watcher's consumer dawdles on every event so its one-slot
	// subscription genuinely overflows: drops, then journal resyncs, are the
	// path under test. The delays are atomic because the starvation phase
	// below turns the dawdle up while the consumers are running.
	delays := make([]atomic.Int64, len(watchOpts))
	delays[0].Store(int64(500 * time.Microsecond))
	watchers := make([]*Watcher, len(watchOpts))
	views := make([]*chaosSeen, len(watchOpts))
	var consumers sync.WaitGroup
	for i, o := range watchOpts {
		w, err := Open(c, def, o)
		if err != nil {
			t.Fatal(err)
		}
		watchers[i] = w
		s := &chaosSeen{seen: make(map[int64]int)}
		views[i] = s
		consumers.Add(1)
		go func(i int, w *Watcher, s *chaosSeen) {
			defer consumers.Done()
			ready := false
			for ch := range w.C {
				if d := delays[i].Load(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				switch ch.Op {
				case OpLoad:
					if ready {
						s.fail("watcher %d: load row after ready", i)
					}
					v, _ := ch.Rec.Get("x")
					s.record(v.AsInt())
				case OpReady:
					ready = true
				case OpInsert:
					if !ready {
						s.fail("watcher %d: insert before ready", i)
					}
					v, _ := ch.Rec.Get("x")
					s.record(v.AsInt())
				case OpResync:
					// The journal is never compacted here (no checkpointer
					// runs), so a resync marker means the tailer lost its
					// place — a correctness bug, not a tuning artifact.
					s.fail("watcher %d: unexpected resync", i)
				default:
					s.fail("watcher %d: unexpected %s", i, ch.Op)
				}
			}
		}(i, w, s)
	}

	// The write storm: inserts acknowledged to workers are the ground truth
	// the watchers must reproduce; aborted inserts must vanish.
	const workers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	type workerState struct {
		committed []int64
		aborted   []int64
		failures  []error
	}
	states := make([]workerState, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &states[w]
			next := int64(w)*1_000_000 + 1
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch i % 4 {
				case 0, 1: // auto-commit insert
					next++
					if _, err := c.Exec(ins(next)); err != nil {
						st.failures = append(st.failures, err)
						return
					}
					st.committed = append(st.committed, next)
				case 2: // explicit transaction, committed
					tx := c.Txns().Begin()
					ctx := txn.NewContext(context.Background(), tx)
					a, b := next+1, next+2
					next += 2
					if _, err := c.ExecCtx(ctx, ins(a)); err != nil {
						st.failures = append(st.failures, err)
						return
					}
					if _, err := c.ExecCtx(ctx, ins(b)); err != nil {
						st.failures = append(st.failures, err)
						return
					}
					if err := c.Txns().Commit(tx); err != nil {
						st.failures = append(st.failures, err)
						return
					}
					st.committed = append(st.committed, a, b)
				case 3: // aborted transaction: the insert must never surface
					tx := c.Txns().Begin()
					ctx := txn.NewContext(context.Background(), tx)
					next++
					if _, err := c.ExecCtx(ctx, ins(next)); err != nil {
						st.failures = append(st.failures, err)
						return
					}
					if err := c.Txns().Abort(tx); err != nil {
						st.failures = append(st.failures, err)
						return
					}
					st.aborted = append(st.aborted, next)
				}
			}
		}(w)
	}

	// The chaos script: grow, rebalance, drain, kill — the fleet always
	// recovering — while the storm and the watchers run.
	waitBackends := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for sys.Backends() != n {
			if time.Now().After(deadline) {
				t.Fatalf("fleet stuck at %d backends, want %d (health %v)",
					sys.Backends(), n, sys.Health())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for round := 0; round < 2; round++ {
		if _, err := sys.AddBackend(); err != nil {
			t.Fatal(err)
		}
		if err := sys.DrainBackend(1); err != nil {
			t.Fatal(err)
		}
		n := sys.Backends()
		sys.Fault(n - 1).Fail(true)
		for i := 0; i < 4; i++ {
			_, _ = c.Exec(retrieve(-1))
			time.Sleep(5 * time.Millisecond)
		}
		waitBackends(n - 1)
		if _, err := sys.AddBackend(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	for w := range states {
		if len(states[w].failures) > 0 {
			t.Fatalf("worker %d: %d failed requests, first: %v",
				w, len(states[w].failures), states[w].failures[0])
		}
	}
	acked := make(map[int64]bool)
	aborted := make(map[int64]bool)
	for w := range states {
		for _, v := range states[w].committed {
			acked[v] = true
		}
		for _, v := range states[w].aborted {
			aborted[v] = true
		}
	}

	// Deterministic starvation: if the storm alone never overflowed the
	// starved watcher's one-slot subscription (its consumer can keep pace on
	// a fast machine), stall that consumer outright and burst auto-commits at
	// it until the publisher provably drops. The burst values join the ground
	// truth, so the convergence check below is exactly the losslessness
	// claim: dropped records must come back through the journal resync.
	if watchers[0].Stats().Dropped == 0 {
		delays[0].Store(int64(5 * time.Millisecond))
		next := int64(9_000_000)
		for burst := 0; watchers[0].Stats().Dropped == 0 && burst < 512; burst++ {
			next++
			if _, err := c.Exec(ins(next)); err != nil {
				t.Fatalf("starvation burst insert: %v", err)
			}
			acked[next] = true
		}
		delays[0].Store(int64(500 * time.Microsecond))
		if watchers[0].Stats().Dropped == 0 {
			t.Fatalf("starved watcher survived a %d-commit burst without dropping (stats %+v); tighten its buffers",
				512, watchers[0].Stats())
		}
	}

	// Convergence: every watcher eventually holds every acknowledged commit.
	deadline := time.Now().Add(30 * time.Second)
	for i, s := range views {
		for !s.covered(acked) {
			if time.Now().After(deadline) {
				s.mu.Lock()
				missing := 0
				for v := range acked {
					if s.seen[v] == 0 {
						missing++
					}
				}
				s.mu.Unlock()
				t.Fatalf("watcher %d: %d of %d acknowledged commits undelivered (stats %+v)",
					i, missing, len(acked), watchers[i].Stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for _, w := range watchers {
		w.Close()
	}
	consumers.Wait()

	// Exactness: delivered exactly once, nothing aborted, nothing invented.
	for i, s := range views {
		for _, msg := range s.errs {
			t.Error(msg)
		}
		for v := range acked {
			if n := s.seen[v]; n != 1 {
				t.Errorf("watcher %d: committed value %d delivered %d times", i, v, n)
			}
		}
		for v, n := range s.seen {
			if aborted[v] {
				t.Errorf("watcher %d: aborted value %d surfaced %d times", i, v, n)
			} else if !acked[v] {
				t.Errorf("watcher %d: unknown value %d delivered %d times", i, v, n)
			}
		}
		if t.Failed() {
			t.Fatalf("watcher %d diverged: %d committed, %d delivered (stats %+v)",
				i, len(acked), len(s.seen), watchers[i].Stats())
		}
	}
	// The starved watcher must actually have exercised the resync path —
	// otherwise the test proved nothing about losslessness under drops. The
	// starvation phase above guarantees Dropped > 0.
	if st := watchers[0].Stats(); st.Dropped == 0 || st.Resyncs == 0 {
		t.Errorf("starved watcher never dropped/resynced (stats %+v); tighten its buffers", st)
	}
}
