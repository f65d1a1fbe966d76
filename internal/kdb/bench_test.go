package kdb

import (
	"fmt"
	"path/filepath"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/pager"
)

func benchDir(b *testing.B) *abdm.Directory {
	b.Helper()
	d := abdm.NewDirectory()
	for _, def := range []struct {
		name string
		kind abdm.Kind
	}{{"title", abdm.KindString}, {"dept", abdm.KindString}, {"credits", abdm.KindInt}} {
		if err := d.DefineAttr(def.name, def.kind); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.DefineFile("course", []string{"title", "dept", "credits"}); err != nil {
		b.Fatal(err)
	}
	return d
}

func benchStore(b *testing.B, n int, opts ...Option) *Store {
	b.Helper()
	s := NewStore(benchDir(b), opts...)
	fillBenchStore(b, s, n)
	return s
}

// fillBenchStore inserts n courses, a quarter of them in each department.
func fillBenchStore(b *testing.B, s *Store, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		rec := abdm.NewRecord("course",
			abdm.Keyword{Attr: "title", Val: abdm.String(fmt.Sprintf("T%06d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String([]string{"CS", "EE", "ME", "CE"}[i%4])},
			abdm.Keyword{Attr: "credits", Val: abdm.Int(int64(i % 7))},
		)
		if _, err := s.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreInsert(b *testing.B) {
	b.ReportAllocs()
	s := benchStore(b, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := abdm.NewRecord("course",
			abdm.Keyword{Attr: "title", Val: abdm.String(fmt.Sprintf("T%08d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
			abdm.Keyword{Attr: "credits", Val: abdm.Int(int64(i % 7))},
		)
		if _, err := s.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreRetrieveIndexed(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			s := benchStore(b, n)
			req := abdl.NewRetrieve(abdm.And(
				abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
			), "title")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkStoreRetrieveScan(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			s := benchStore(b, n, WithoutIndexes())
			req := abdl.NewRetrieve(abdm.And(
				abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
			), "title")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// The two benchmarks below put a number on the per-row cost of the read path
// over a 200-row result (benchStore's CS department of 800 courses): a cache
// hit, which copies the Result and its slices and shares every row, and a
// miss that qualifies through the index and projects an explicit target
// list, which builds one new record per row.
//
//	go test -bench Retrieve -benchmem ./internal/kdb

func BenchmarkStoreRetrieveCacheHit(b *testing.B) {
	b.ReportAllocs()
	s := benchStore(b, 800)
	req := abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	), abdl.AllAttrs)
	if res, err := s.Exec(req); err != nil || len(res.Records) != 200 {
		b.Fatalf("warm-up: %d records, err %v; want 200", len(res.Records), err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(req); err != nil {
			b.Fatal(err)
		}
	}
	if st := s.Stats(); st.CacheHits < uint64(b.N) {
		b.Fatalf("%d hits in %d executions", st.CacheHits, b.N)
	}
}

func BenchmarkStoreRetrieveProjected(b *testing.B) {
	b.ReportAllocs()
	s := benchStore(b, 800, WithResultCache(0)) // every execution is a miss
	req := abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	), "title", "credits")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(req)
		if err != nil || len(res.Records) != 200 {
			b.Fatalf("%d records, err %v; want 200", len(res.Records), err)
		}
	}
}

// BenchmarkBackedRetrieveIndexedCold is the cold read path: the same
// 200-row index-eq read over a backed store whose bodies all live in the
// page heap, read through an 8-frame pool, so nearly every page it needs is
// a miss. Every execution bypasses the result cache.
func BenchmarkBackedRetrieveIndexedCold(b *testing.B) {
	b.ReportAllocs()
	s, err := CreateBacked(filepath.Join(b.TempDir(), "cold.pgf"), benchDir(b),
		WithPoolPages(8), WithResultCache(0))
	if err != nil {
		b.Fatal(err)
	}
	defer s.CloseBacking()
	fillBenchStore(b, s, 800)
	req := abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	), abdl.AllAttrs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Exec(req)
		if err != nil || len(res.Records) != 200 {
			b.Fatalf("%d records, err %v; want 200", len(res.Records), err)
		}
	}
}

func BenchmarkStoreRetrieveRange(b *testing.B) {
	b.ReportAllocs()
	s := benchStore(b, 10000)
	req := abdl.NewRetrieve(abdm.Query{{
		{Attr: "credits", Op: abdm.OpGe, Val: abdm.Int(5)},
	}}, "title")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreUpdate(b *testing.B) {
	b.ReportAllocs()
	s := benchStore(b, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := abdl.NewUpdate(abdm.And(
			abdm.Predicate{Attr: "title", Op: abdm.OpEq, Val: abdm.String(fmt.Sprintf("T%06d", i%10000))},
		), abdl.Modifier{Attr: "credits", Val: abdm.Int(int64(i % 9))})
		if _, err := s.Exec(req); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreRetrieveCommon(b *testing.B) {
	b.ReportAllocs()
	s := benchStore(b, 10000)
	req := abdl.NewRetrieveCommon(
		abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")}),
		"credits",
		abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("EE")}),
		"title",
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Exec(req); err != nil {
			b.Fatal(err)
		}
	}
}

// The three benchmarks below time the kernel's write-side bookkeeping and
// its index probe, each sized so that the work done is small next to the
// store around it:
//
//	go test -run '^$' -bench 'MvccGC|BackedUpdateWriteThrough|IndexEqLookup' -benchmem ./internal/kdb

// BenchmarkMvccGC is one MVCC-GC sweep over a store of 100 000 records, 64
// of which gained a version since the previous sweep.
func BenchmarkMvccGC(b *testing.B) {
	b.ReportAllocs()
	const n, touched = 100000, 64
	s := benchStore(b, n)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.mu.Lock()
		for j := 0; j < touched; j++ {
			id := abdm.RecordID(1 + (i*touched+j)%n)
			s.noteVersion(nil, "course", id, s.files["course"][id])
		}
		watermark := s.mvcc.epoch
		s.mu.Unlock()
		b.StartTimer()
		res, err := s.Exec(&abdl.Request{Kind: abdl.MvccGC, MvccEpoch: watermark})
		if err != nil || res.Count != touched {
			b.Fatalf("pruned %d versions, err %v; want %d", res.Count, err, touched)
		}
	}
}

// BenchmarkBackedUpdateWriteThrough is a one-attribute UPDATE under a
// transaction plus its MVCC stamp on a backed store of 20 000 courses, whose
// FILE and dept values each cover thousands of records: the stamp writes the
// new row through to the heap and the committed index.
func BenchmarkBackedUpdateWriteThrough(b *testing.B) {
	b.ReportAllocs()
	const n = 20000
	s, err := CreateBacked(filepath.Join(b.TempDir(), "wt.pgf"), benchDir(b), WithResultCache(0))
	if err != nil {
		b.Fatal(err)
	}
	defer s.CloseBacking()
	fillBenchStore(b, s, n)
	_, epoch := s.VersionStats()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := uint64(i + 1)
		up := abdl.NewUpdate(abdm.And(
			abdm.Predicate{Attr: "title", Op: abdm.OpEq, Val: abdm.String(fmt.Sprintf("T%06d", i%n))},
		), abdl.Modifier{Attr: "credits", Val: abdm.Int(int64(i % 9))})
		up.TxnID = txn
		if _, err := s.Exec(up); err != nil {
			b.Fatal(err)
		}
		epoch++
		if _, err := s.Exec(&abdl.Request{Kind: abdl.MvccCommit, TxnID: txn, MvccEpoch: epoch}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexEqLookup is one equality probe of an attribute index with
// 10 000 distinct values, for an int and a string value.
func BenchmarkIndexEqLookup(b *testing.B) {
	const n = 10000
	for _, kind := range []string{"int", "string"} {
		b.Run(kind, func(b *testing.B) {
			b.ReportAllocs()
			ix := newAttrIndex()
			vals := make([]abdm.Value, n)
			for i := range vals {
				vals[i] = abdm.Int(int64(i) * 7919)
				if kind == "string" {
					vals[i] = abdm.String(fmt.Sprintf("owner-%06d", i))
				}
				ix.add(vals[i], abdm.RecordID(i+1))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ids := ix.lookupEq(vals[i%n]); len(ids) != 1 {
					b.Fatalf("%d ids", len(ids))
				}
			}
		})
	}
}

// BenchmarkCheckpointFlush is one checkpoint (fence, flush, image, commit)
// of a backed store of 50 000 accounts after rewriting the balance of 0 %,
// 1 %, 10 % or 100 % of them since the previous one: checkpoint cost
// against the fraction of the store written. The rewrites run with the
// timer stopped.
func BenchmarkCheckpointFlush(b *testing.B) {
	const n = 50000
	d := abdm.NewDirectory()
	for _, def := range []struct {
		name string
		kind abdm.Kind
	}{{"acct", abdm.KindInt}, {"owner", abdm.KindString}, {"region", abdm.KindString}, {"balance", abdm.KindInt}} {
		if err := d.DefineAttr(def.name, def.kind); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.DefineFile("acct", []string{"acct", "owner", "region", "balance"}); err != nil {
		b.Fatal(err)
	}
	for _, pct := range []int{0, 1, 10, 100} {
		b.Run(fmt.Sprintf("dirty=%d%%", pct), func(b *testing.B) {
			b.ReportAllocs()
			s, err := CreateBacked(filepath.Join(b.TempDir(), "ck.pgf"), d, WithResultCache(0))
			if err != nil {
				b.Fatal(err)
			}
			defer s.CloseBacking()
			for i := 0; i < n; i++ {
				rec := abdm.NewRecord("acct",
					abdm.Keyword{Attr: "acct", Val: abdm.Int(int64(i))},
					abdm.Keyword{Attr: "owner", Val: abdm.String(fmt.Sprintf("owner-%05d", i))},
					abdm.Keyword{Attr: "region", Val: abdm.String([]string{"N", "E", "S", "W"}[i%4])},
					abdm.Keyword{Attr: "balance", Val: abdm.Int(int64(i) * 100)},
				)
				if _, err := s.Insert(rec); err != nil {
					b.Fatal(err)
				}
			}
			checkpoint := func() {
				if _, err := s.CheckpointBegin(); err != nil {
					b.Fatal(err)
				}
				if err := commitCheckpoint(s, pager.Meta{Epoch: 1}); err != nil {
					b.Fatal(err)
				}
			}
			checkpoint()
			dirty := n * pct / 100
			next := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < dirty; j++ {
					acct := next % n
					next++
					up := abdl.NewUpdate(abdm.And(
						abdm.Predicate{Attr: "acct", Op: abdm.OpEq, Val: abdm.Int(int64(acct))},
					), abdl.Modifier{Attr: "balance", Val: abdm.Int(int64(acct)*100 + int64(next%97))})
					if _, err := s.Exec(up); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				checkpoint()
			}
		})
	}
}
