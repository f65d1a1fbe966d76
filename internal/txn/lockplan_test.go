package txn

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

func eqP(attr string, v abdm.Value) abdm.Predicate {
	return abdm.Predicate{Attr: attr, Op: abdm.OpEq, Val: v}
}

func inFile(f string) abdm.Predicate { return eqP(abdm.FileAttr, abdm.String(f)) }

// acctAt is the qualification FILE = acct AND id = v.
func acctAt(v abdm.Value) abdm.Query { return abdm.And(inFile("acct"), eqP("id", v)) }

func getAcct(id int64) *abdl.Request {
	return abdl.NewRetrieve(acctAt(abdm.Int(id)), abdl.AllAttrs)
}

// String renders a lock name for test failures: root, a file, or file/value.
func (n lockName) String() string {
	switch {
	case n == rootResource:
		return "root"
	case n.kind == nameNum:
		return n.file + "/" + strconv.FormatFloat(math.Float64frombits(n.num), 'g', -1, 64)
	case n.kind == nameStr:
		return n.file + "/'" + n.str + "'"
	}
	return n.file
}

func planText(plan []lockStep) string {
	parts := make([]string, len(plan))
	for i, st := range plan {
		parts[i] = st.name.String() + ":" + st.mode.String()
	}
	return strings.Join(parts, " ")
}

func planOf(m *Manager, reqs ...*abdl.Request) string {
	var plan []lockStep
	for _, req := range reqs {
		plan = m.appendLocks(plan, req)
	}
	return planText(mergePlan(plan))
}

// TestLockPlans: which requests are keyed, and the plan each request takes.
func TestLockPlans(t *testing.T) {
	m := NewManager(Config{Exec: fakeExec{benchDir(t)}})
	negZero := abdm.Float(math.Copysign(0, -1))
	forced := abdl.NewDelete(acctAt(abdm.Int(5)))
	forced.ForceID = 42
	forcedIns := abdl.NewInsert(abdm.NewRecord("acct", abdm.Keyword{Attr: "id", Val: abdm.Int(5)}))
	forcedIns.ForceID = 42
	cases := []struct {
		name string
		reqs []*abdl.Request
		want string
	}{
		{"keyed read", []*abdl.Request{getAcct(5)}, "root:IS acct:IS acct/5:S"},
		{"keyed update", []*abdl.Request{setBal(5, 1)}, "root:IX acct:IX acct/5:X"},
		{"keyed delete", []*abdl.Request{abdl.NewDelete(acctAt(abdm.Int(5)))}, "root:IX acct:IX acct/5:X"},
		{"keyed insert", []*abdl.Request{abdl.NewInsert(abdm.NewRecord("acct",
			abdm.Keyword{Attr: "id", Val: abdm.Int(5)}, abdm.Keyword{Attr: "bal", Val: abdm.Int(1)}))},
			"root:IX acct:IX acct/5:X"},
		{"string key", []*abdl.Request{abdl.NewRetrieve(abdm.And(inFile("tag"), eqP("code", abdm.String("b"))), abdl.AllAttrs)},
			"root:IS tag:IS tag/'b':S"},
		{"disjunction of keys", []*abdl.Request{abdl.NewRetrieve(abdm.Query{
			{inFile("acct"), eqP("id", abdm.Int(7))}, {inFile("acct"), eqP("id", abdm.Int(5))}}, abdl.AllAttrs)},
			"root:IS acct:IS acct/5:S acct/7:S"},
		{"two files", []*abdl.Request{abdl.NewUpdate(abdm.Query{
			{inFile("tag"), eqP("code", abdm.String("b"))}, {eqP("id", abdm.Int(5)), inFile("acct")}},
			abdl.Modifier{Attr: "bal", Val: abdm.Int(0)})},
			"root:IX acct:IX acct/5:X tag:IX tag/'b':X"},
		{"key among other predicates", []*abdl.Request{abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: "bal", Op: abdm.OpGt, Val: abdm.Int(0)}, inFile("acct"), eqP("id", abdm.Int(5))), abdl.AllAttrs)},
			"root:IS acct:IS acct/5:S"},
		{"non-key predicate", []*abdl.Request{abdl.NewRetrieve(abdm.And(inFile("acct"), eqP("bal", abdm.Int(5))), abdl.AllAttrs)},
			"root:IS acct:S"},
		{"key range", []*abdl.Request{abdl.NewUpdate(abdm.And(inFile("acct"),
			abdm.Predicate{Attr: "id", Op: abdm.OpGe, Val: abdm.Int(5)}), abdl.Modifier{Attr: "bal", Val: abdm.Int(0)})},
			"root:IX acct:X"},
		{"one conjunction unkeyed", []*abdl.Request{abdl.NewRetrieve(abdm.Query{
			{inFile("acct"), eqP("id", abdm.Int(5))}, {inFile("tag"), eqP("bal", abdm.Int(1))}}, abdl.AllAttrs)},
			"root:IS acct:S tag:S"},
		{"update sets the key", []*abdl.Request{abdl.NewUpdate(acctAt(abdm.Int(5)),
			abdl.Modifier{Attr: "id", Val: abdm.Int(6)})}, "root:IX acct:X"},
		{"update sets FILE", []*abdl.Request{abdl.NewUpdate(acctAt(abdm.Int(5)),
			abdl.Modifier{Attr: abdm.FileAttr, Val: abdm.String("tag")})}, "root:IX acct:X"},
		{"insert with a NULL key", []*abdl.Request{abdl.NewInsert(abdm.NewRecord("acct",
			abdm.Keyword{Attr: "id", Val: abdm.Null()}))}, "root:IX acct:X"},
		{"insert without the key", []*abdl.Request{abdl.NewInsert(abdm.NewRecord("acct",
			abdm.Keyword{Attr: "bal", Val: abdm.Int(1)}))}, "root:IX acct:X"},
		{"insert pinned to a database key", []*abdl.Request{forcedIns}, "root:IX acct:X"},
		{"NULL key", []*abdl.Request{abdl.NewRetrieve(acctAt(abdm.Null()), abdl.AllAttrs)}, "root:IS acct:S"},
		{"NaN key", []*abdl.Request{abdl.NewRetrieve(acctAt(abdm.Float(math.NaN())), abdl.AllAttrs)}, "root:IS acct:S"},
		{"Int(5) and Float(5.0) share a lock", []*abdl.Request{getAcct(5),
			abdl.NewUpdate(acctAt(abdm.Float(5)), abdl.Modifier{Attr: "bal", Val: abdm.Int(0)})},
			"root:IX acct:IX acct/5:X"},
		{"-0 and 0 share a lock", []*abdl.Request{getAcct(0), abdl.NewRetrieve(acctAt(negZero), abdl.AllAttrs)},
			"root:IS acct:IS acct/0:S"},
		{"ForceID DELETE keeps root X", []*abdl.Request{forced}, "root:X"},
		{"undeclared file", []*abdl.Request{abdl.NewRetrieve(abdm.And(inFile("zz"), eqP("id", abdm.Int(5))), abdl.AllAttrs)},
			"root:IS zz:S"},
		{"no FILE", []*abdl.Request{abdl.NewRetrieve(abdm.And(eqP("id", abdm.Int(5))), abdl.AllAttrs)}, "root:S"},
		{"empty qualification", []*abdl.Request{abdl.NewRetrieve(nil, abdl.AllAttrs)}, "root:S"},
		{"RETRIEVE-COMMON", []*abdl.Request{{Kind: abdl.RetrieveCommon, Query: acctAt(abdm.Int(5)),
			Query2: abdm.And(inFile("tag"), eqP("code", abdm.String("b"))), Common: "bal", Target: []abdl.TargetItem{{Attr: "bal"}}}},
			"root:IS acct:S tag:S"},
		{"batch: keyed and scan on one file", []*abdl.Request{setBal(5, 1),
			abdl.NewRetrieve(abdm.And(inFile("acct")), abdl.AllAttrs)}, "root:IX acct:SIX acct/5:X"},
	}
	for _, c := range cases {
		if got := planOf(m, c.reqs...); got != c.want {
			t.Errorf("%s: plan %q, want %q", c.name, got, c.want)
		}
	}
}

// outcome runs req in tx on its own goroutine and reports whether it got
// through while the holders still hold their locks (true) or queued in the
// lock table (false). No timing is involved: it polls the lock table until
// the statement either returns or is registered as a waiter. done delivers
// the statement's error either way.
func outcome(t *testing.T, m *Manager, tx *Txn, req *abdl.Request) (proceeded bool, done chan error) {
	t.Helper()
	done = make(chan error, 1)
	go func() {
		_, _, err := m.Exec(context.Background(), tx, req)
		done <- err
	}()
	for {
		select {
		case err := <-done:
			done <- err
			return true, done
		default:
		}
		m.locks.mu.Lock()
		waiting := m.locks.waiting[tx.id] != nil
		m.locks.mu.Unlock()
		if waiting {
			return false, done
		}
		time.Sleep(time.Millisecond)
	}
}

// TestValueLockBlocking: who waits for whom once the lock is a key value.
func TestValueLockBlocking(t *testing.T) {
	scan := abdl.NewUpdate(abdm.And(inFile("acct"), abdm.Predicate{Attr: "bal", Op: abdm.OpGt, Val: abdm.Int(0)}),
		abdl.Modifier{Attr: "bal", Val: abdm.Int(0)})
	rekey := abdl.NewUpdate(acctAt(abdm.Int(1)), abdl.Modifier{Attr: "id", Val: abdm.Int(9)})
	insert9 := abdl.NewInsert(abdm.NewRecord("acct", abdm.Keyword{Attr: "id", Val: abdm.Int(9)}))
	cases := []struct {
		name   string
		holder *abdl.Request
		next   *abdl.Request
		waits  bool
	}{
		{"updates of different keys of one file both proceed", setBal(1, 10), setBal(2, 20), false},
		{"updates of the same key", setBal(1, 10), setBal(1, 20), true},
		{"readers of the same key both proceed", getAcct(1), getAcct(1), false},
		{"keyed INSERT after a keyed read that found nothing", getAcct(9), insert9, true},
		{"non-key scan UPDATE after a keyed reader", getAcct(1), scan, true},
		{"UPDATE setting the key to a value after a reader of that value", getAcct(9), rekey, true},
		{"int and float spellings of one key", setBal(5, 1),
			abdl.NewRetrieve(acctAt(abdm.Float(5)), abdl.AllAttrs), true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewManager(Config{Exec: fakeExec{benchDir(t)}, LockTimeout: 10 * time.Second})
			holder := m.Begin()
			if _, _, err := m.Exec(context.Background(), holder, c.holder); err != nil {
				t.Fatal(err)
			}
			next := m.Begin()
			proceeded, done := outcome(t, m, next, c.next)
			if proceeded == c.waits {
				t.Errorf("second statement proceeded = %v, want %v", proceeded, !c.waits)
			}
			if err := m.Commit(holder); err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatalf("second statement failed: %v", err)
			}
			if err := m.Commit(next); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLockPathRecycles: in steady state a transaction's locks come from the
// recycled resources, and release leaves nothing in the table.
func TestLockPathRecycles(t *testing.T) {
	m := NewManager(Config{Exec: fakeExec{benchDir(t)}})
	ctx := context.Background()
	run := func(id int64) {
		tx := m.Begin()
		if _, _, err := m.Exec(ctx, tx, setBal(id, 1)); err != nil {
			t.Fatal(err)
		}
		if err := m.Commit(tx); err != nil {
			t.Fatal(err)
		}
	}
	run(1)
	if n := len(m.locks.res); n != 0 {
		t.Fatalf("%d resources left after commit", n)
	}
	free := len(m.locks.free)
	if allocs := testing.AllocsPerRun(50, func() {
		m.locks.mu.Lock()
		defer m.locks.mu.Unlock()
		r := m.locks.resource(lockName{file: "acct", kind: nameNum, num: 7})
		r.holders = append(r.holders, holder{1, X})
		r.drop(1)
		m.locks.sweep(r)
	}); allocs != 0 {
		t.Errorf("a recycled resource costs %v allocations, want 0", allocs)
	}
	if len(m.locks.free) != free {
		t.Errorf("free list %d, want %d", len(m.locks.free), free)
	}
	run(2)
}
