package mbds

import (
	"fmt"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

func benchSystem(b *testing.B, backends, records int) *System {
	b.Helper()
	d := abdm.NewDirectory()
	for _, def := range []struct {
		name string
		kind abdm.Kind
	}{{"name", abdm.KindString}, {"dept", abdm.KindString}, {"salary", abdm.KindInt}} {
		if err := d.DefineAttr(def.name, def.kind); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.DefineFile("employee", []string{"name", "dept", "salary"}); err != nil {
		b.Fatal(err)
	}
	s, err := New(d, DefaultConfig(backends))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)
	for i := 0; i < records; i++ {
		rec := abdm.NewRecord("employee",
			abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("e%06d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String([]string{"CS", "EE", "ME", "CE"}[i%4])},
			abdm.Keyword{Attr: "salary", Val: abdm.Int(int64(30000 + i))})
		if _, err := s.Exec(abdl.NewInsert(rec)); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

// BenchmarkBroadcastWallClock measures real (not simulated) wall time per
// broadcast retrieval as backends grow — the goroutine-parallelism curve.
func BenchmarkBroadcastWallClock(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("backends=%d", n), func(b *testing.B) {
			s := benchSystem(b, n, 8000)
			req := abdl.NewRetrieve(abdm.And(
				abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
			), "name")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Exec(req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInsertThroughput measures placement + routing overhead: one
// INSERT, a round of one, per iteration.
func BenchmarkInsertThroughput(b *testing.B) {
	s := benchSystem(b, 4, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := abdm.NewRecord("employee",
			abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("x%08d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
			abdm.Keyword{Attr: "salary", Val: abdm.Int(int64(i))})
		if _, err := s.Exec(abdl.NewInsert(rec)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentRetrieves measures multi-client throughput.
func BenchmarkConcurrentRetrieves(b *testing.B) {
	s := benchSystem(b, 4, 8000)
	req := abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("EE")},
	), "name")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := s.Exec(req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExecPoint measures the controller's per-request overhead: one
// keyed RETRIEVE (a single matching record) through ExecTimed on 2 backends.
func BenchmarkExecPoint(b *testing.B) {
	s := benchSystem(b, 2, 1000)
	req := abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "name", Op: abdm.OpEq, Val: abdm.String("e000500")},
	), "name", "salary")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := s.ExecTimed(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Records) != 1 {
			b.Fatalf("point retrieve answered %d records, want 1", len(res.Records))
		}
	}
}

// BenchmarkExecBatchInsert measures one 256-INSERT round through ExecBatch
// on 4 backends: planning, per-backend sub-batches and the positional merge.
// Each round loads a fresh system, so the stores never grow past one round.
func BenchmarkExecBatchInsert(b *testing.B) {
	reqs := make([]*abdl.Request, 256)
	for j := range reqs {
		reqs[j] = abdl.NewInsert(abdm.NewRecord("employee",
			abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("x%08d", j))},
			abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
			abdm.Keyword{Attr: "salary", Val: abdm.Int(int64(j))}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := benchSystem(b, 4, 0)
		b.StartTimer()
		if _, _, err := s.ExecBatch(reqs); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}
