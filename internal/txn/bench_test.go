package txn

import (
	"context"
	"sync"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

// fakeExec is an executor that runs nothing: every request returns an empty
// result at once, so a harness over it measures and tests the manager alone.
// Its directory is real.
type fakeExec struct{ dir *abdm.Directory }

var emptyResult = &kdb.Result{}

func (f fakeExec) ExecTimedCtx(context.Context, *abdl.Request) (*kdb.Result, time.Duration, error) {
	return emptyResult, 0, nil
}

func (f fakeExec) ExecBatchCtx(_ context.Context, reqs []*abdl.Request) ([]*kdb.Result, time.Duration, error) {
	out := make([]*kdb.Result, len(reqs))
	for i := range out {
		out[i] = emptyResult
	}
	return out, 0, nil
}

func (f fakeExec) Directory() *abdm.Directory { return f.dir }

// benchDir declares acct (lock key id, an int) and tag (lock key code, a
// string); both carry bal.
func benchDir(tb testing.TB) *abdm.Directory {
	tb.Helper()
	dir := abdm.NewDirectory()
	for _, a := range []struct {
		name string
		kind abdm.Kind
	}{{"id", abdm.KindInt}, {"code", abdm.KindString}, {"bal", abdm.KindInt}} {
		if err := dir.DefineAttr(a.name, a.kind); err != nil {
			tb.Fatal(err)
		}
	}
	if err := dir.DefineFile("acct", []string{"id", "bal"}); err != nil {
		tb.Fatal(err)
	}
	if err := dir.DefineFile("tag", []string{"code", "bal"}); err != nil {
		tb.Fatal(err)
	}
	return dir
}

// setBal is the keyed UPDATE of a transfer: UPDATE (FILE = acct AND id = id)
// <bal = v>.
func setBal(id, v int64) *abdl.Request {
	return abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("acct")},
		abdm.Predicate{Attr: "id", Op: abdm.OpEq, Val: abdm.Int(id)}),
		abdl.Modifier{Attr: "bal", Val: abdm.Int(v)})
}

// autocommit runs one statement as its own transaction. It reports with
// Error, not Fatal: the parallel benchmark calls it off the benchmark's
// goroutine.
func autocommit(b *testing.B, m *Manager, req *abdl.Request) {
	tx := m.Begin()
	if _, _, err := m.Exec(context.Background(), tx, req); err != nil {
		b.Error(err)
		return
	}
	if err := m.Commit(tx); err != nil {
		b.Error(err)
	}
}

// BenchmarkAutocommitKeyed: Begin, a keyed UPDATE and Commit, the manager's
// per-statement cost with the kernel taken out.
func BenchmarkAutocommitKeyed(b *testing.B) {
	m := NewManager(Config{Exec: fakeExec{benchDir(b)}})
	reqs := make([]*abdl.Request, 64)
	for i := range reqs {
		reqs[i] = setBal(int64(i), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		autocommit(b, m, reqs[i%len(reqs)])
	}
}

// BenchmarkAutocommitKeyedParallel: two goroutines run the same loop on
// disjoint keys of one file. Under file locks they serialise on acct; under
// value locks they only share the lock table's mutex.
func BenchmarkAutocommitKeyedParallel(b *testing.B) {
	m := NewManager(Config{Exec: fakeExec{benchDir(b)}})
	var reqs [2][]*abdl.Request
	for g := range reqs {
		for i := 0; i < 64; i++ {
			reqs[g] = append(reqs[g], setBal(int64(2*i+g), 1))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := range reqs {
		wg.Add(1)
		go func(own []*abdl.Request, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				autocommit(b, m, own[i%len(own)])
			}
		}(reqs[g], (b.N+1-g)/2)
	}
	wg.Wait()
}
