package mbdsnet

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
	"mlds/internal/obs"
)

// startCountedCluster is startCluster, additionally returning the backend
// servers so tests can assert on their wire-level op counters.
func startCountedCluster(t *testing.T, n int) (*mbds.System, []*BackendServer) {
	t.Helper()
	dir := testDir(t)
	var execs []mbds.Executor
	var servers []*BackendServer
	for i := 0; i < n; i++ {
		store := kdb.NewStore(dir.Clone())
		srv, err := Listen("127.0.0.1:0", store)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		rb, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rb.Close() })
		execs = append(execs, rb)
		servers = append(servers, srv)
	}
	sys, err := mbds.NewWithExecutors(dir, mbds.DefaultConfig(n), execs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys, servers
}

// TestBatchOneWireMessagePerBackend is the acceptance check for the batch
// wire op: a batched bulk load reaches each backend as exactly one execbatch
// message, not one message per request.
func TestBatchOneWireMessagePerBackend(t *testing.T) {
	sys, servers := startCountedCluster(t, 3)
	const n = 30
	reqs := make([]*abdl.Request, n)
	for i := range reqs {
		reqs[i] = abdl.NewInsert(abdm.NewRecord("employee",
			abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("emp%03d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
			abdm.Keyword{Attr: "salary", Val: abdm.Int(int64(1000 + i))}))
	}
	results, _, err := sys.ExecBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("batch returned %d results, want %d", len(results), n)
	}
	if sys.Len() != n {
		t.Fatalf("cluster holds %d records, want %d", sys.Len(), n)
	}
	totalReqs := uint64(0)
	for i, srv := range servers {
		oc := srv.OpCounts()
		if oc.Batch != 1 {
			t.Errorf("backend %d served %d execbatch messages, want exactly 1", i, oc.Batch)
		}
		if oc.Errors != 0 {
			t.Errorf("backend %d reported %d op errors", i, oc.Errors)
		}
		totalReqs += oc.BatchReqs
	}
	if totalReqs != n {
		t.Errorf("batched requests across backends = %d, want %d (one slot per insert)", totalReqs, n)
	}

	// A broadcast in a second batch is one more message per backend.
	q := abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")})
	res, _, err := sys.ExecBatch([]*abdl.Request{abdl.NewRetrieve(q, abdl.AllAttrs)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[0].Records) != n {
		t.Fatalf("batched broadcast retrieve saw %d records, want %d", len(res[0].Records), n)
	}
	for i, srv := range servers {
		if oc := srv.OpCounts(); oc.Batch != 2 {
			t.Errorf("backend %d served %d execbatch messages after two batches, want 2", i, oc.Batch)
		}
	}
}

// TestRemoteExecBatchDirect exercises the client side without a controller.
func TestRemoteExecBatchDirect(t *testing.T) {
	dir := testDir(t)
	store := kdb.NewStore(dir.Clone())
	srv, err := Listen("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	rb, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rb.Close() })

	reqs := []*abdl.Request{
		abdl.NewInsert(abdm.NewRecord("employee",
			abdm.Keyword{Attr: "name", Val: abdm.String("ada")},
			abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
			abdm.Keyword{Attr: "salary", Val: abdm.Int(5000)})),
		abdl.NewRetrieve(abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")}), abdl.AllAttrs),
	}
	results := make([]*kdb.Result, len(reqs))
	if err := rb.ExecBatch(reqs, results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	if results[0].Count != 1 || len(results[1].Records) != 1 {
		t.Fatalf("batch results: insert count %d, retrieve %d records", results[0].Count, len(results[1].Records))
	}
	if v, _ := results[1].Records[0].Rec.Get("name"); v.AsString() != "ada" {
		t.Fatalf("retrieved %q, want ada", v.AsString())
	}

	// A failing request surfaces as one batch error, and the server counts it.
	bad := []*abdl.Request{{Kind: abdl.Delete}}
	if err := rb.ExecBatch(bad, make([]*kdb.Result, len(bad))); err == nil {
		t.Fatal("invalid batch succeeded over the wire")
	}
	if oc := srv.OpCounts(); oc.Errors != 1 {
		t.Fatalf("server op errors = %d, want 1", oc.Errors)
	}
}

// TestBatchCountersInMetrics checks the Instrumented counters surface in
// Prometheus exposition, including the store's cache hit/miss gauges.
func TestBatchCountersInMetrics(t *testing.T) {
	dir := testDir(t)
	store := kdb.NewStore(dir.Clone())
	srv, err := Listen("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	reg := obs.NewRegistry()
	srv.Instrument(reg, obs.L("backend", "0"))
	rb, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rb.Close() })

	var reqs []*abdl.Request
	for i := 0; i < 5; i++ {
		reqs = append(reqs, abdl.NewInsert(abdm.NewRecord("employee",
			abdm.Keyword{Attr: "name", Val: abdm.String("n" + strconv.Itoa(i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
			abdm.Keyword{Attr: "salary", Val: abdm.Int(int64(i))})))
	}
	if err := rb.ExecBatch(reqs, make([]*kdb.Result, len(reqs))); err != nil {
		t.Fatal(err)
	}
	// Same retrieve twice, each an execbatch message of one: the second
	// hits the store's result cache.
	ret := abdl.NewRetrieve(abdm.And(abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")}), abdl.AllAttrs)
	for i := 0; i < 2; i++ {
		if _, err := execOne(rb, ret); err != nil {
			t.Fatal(err)
		}
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`mlds_server_batch_total{backend="0"} 3`,
		`mlds_server_batch_requests_total{backend="0"} 7`,
		`mlds_store_cache_hits{backend="0"} 1`,
		`mlds_store_cache_misses{backend="0"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q\n%s", want, text)
		}
	}
}
