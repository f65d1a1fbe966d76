package mbdsnet

import (
	"errors"
	"fmt"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
)

// execOne sends one request to a remote backend as a share of one.
func execOne(rb *RemoteBackend, req *abdl.Request) (*kdb.Result, error) {
	out := make([]*kdb.Result, 1)
	err := rb.ExecBatch([]*abdl.Request{req}, out)
	return out[0], err
}

func testDir(t *testing.T) *abdm.Directory {
	t.Helper()
	d := abdm.NewDirectory()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(d.DefineAttr("name", abdm.KindString))
	must(d.DefineAttr("dept", abdm.KindString))
	must(d.DefineAttr("salary", abdm.KindInt))
	must(d.DefineFile("employee", []string{"name", "dept", "salary"}))
	return d
}

// startCluster launches n backend servers on ephemeral ports and returns a
// controller over them.
func startCluster(t *testing.T, n int) *mbds.System {
	t.Helper()
	dir := testDir(t)
	var execs []mbds.Executor
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
	}
	sys, err := mbds.NewWithExecutors(dir, mbds.DefaultConfig(n), execs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func loadCluster(t *testing.T, sys *mbds.System, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := abdm.NewRecord("employee",
			abdm.Keyword{Attr: "name", Val: abdm.String(fmt.Sprintf("emp%03d", i))},
			abdm.Keyword{Attr: "dept", Val: abdm.String([]string{"CS", "EE"}[i%2])},
			abdm.Keyword{Attr: "salary", Val: abdm.Int(int64(1000 + i))})
		if _, err := sys.Exec(abdl.NewInsert(rec)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemoteClusterEndToEnd(t *testing.T) {
	sys := startCluster(t, 3)
	loadCluster(t, sys, 30)
	if sys.Len() != 30 {
		t.Fatalf("Len over the bus = %d", sys.Len())
	}
	sizes := sys.PartitionSizes()
	for i, sz := range sizes {
		if sz != 10 {
			t.Errorf("partition %d = %d, want 10", i, sz)
		}
	}
	res, err := sys.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	), "name", "salary"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 15 {
		t.Fatalf("CS employees = %d", len(res.Records))
	}
	// Database keys must not collide across the remote partitions.
	seen := map[abdm.RecordID]bool{}
	snap, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range snap {
		if seen[sr.ID] {
			t.Fatalf("key %d duplicated across remote backends", sr.ID)
		}
		seen[sr.ID] = true
	}
	if len(seen) != 30 {
		t.Errorf("snapshot over the bus = %d records", len(seen))
	}
}

func TestRemoteUpdateDeleteAggregate(t *testing.T) {
	sys := startCluster(t, 2)
	loadCluster(t, sys, 20)
	upd, err := sys.Exec(abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "dept", Op: abdm.OpEq, Val: abdm.String("CS")},
	), abdl.Modifier{Attr: "salary", Val: abdm.Int(7)}))
	if err != nil {
		t.Fatal(err)
	}
	if upd.Count != 10 {
		t.Fatalf("updated %d", upd.Count)
	}
	agg, err := sys.Exec(&abdl.Request{
		Kind:  abdl.Retrieve,
		Query: abdm.And(abdm.Predicate{Attr: "salary", Op: abdm.OpEq, Val: abdm.Int(7)}),
		Target: []abdl.TargetItem{
			{Agg: abdl.AggCount, Attr: "name"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Groups[0].Aggs[0].Val.AsInt() != 10 {
		t.Errorf("count = %v", agg.Groups[0].Aggs[0].Val)
	}
	del, err := sys.Exec(abdl.NewDelete(abdm.And(
		abdm.Predicate{Attr: "salary", Op: abdm.OpEq, Val: abdm.Int(7)},
	)))
	if err != nil {
		t.Fatal(err)
	}
	if del.Count != 10 || sys.Len() != 10 {
		t.Errorf("delete count = %d, remaining = %d", del.Count, sys.Len())
	}
}

func TestRemoteErrorPropagation(t *testing.T) {
	sys := startCluster(t, 2)
	bad := abdl.NewDelete(abdm.And(
		abdm.Predicate{Attr: "nosuch", Op: abdm.OpEq, Val: abdm.Int(1)}))
	if _, err := sys.Exec(bad); err == nil {
		t.Error("remote validation error not propagated")
	}
}

func TestRemoteReconnect(t *testing.T) {
	dir := testDir(t)
	store := kdb.NewStore(dir.Clone())
	srv, err := Listen("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if _, err := rb.Len(); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address; the client must redial.
	addr := srv.Addr()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := Listen(addr, store)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	// One attempt per call: the call that finds the old connection dead
	// fails with a DownError and drops it; the next call redials.
	var down *DownError
	if _, err := rb.Len(); !errors.As(err, &down) {
		t.Fatalf("call on the dead connection = %v, want DownError", err)
	}
	if _, err := rb.Len(); err != nil {
		t.Fatalf("reconnect failed: %v", err)
	}
}

func TestRemoteBackendDirect(t *testing.T) {
	dir := testDir(t)
	store := kdb.NewStore(dir.Clone())
	srv, err := Listen("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rb, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	rec := abdm.NewRecord("employee",
		abdm.Keyword{Attr: "name", Val: abdm.String("x")},
		abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
		abdm.Keyword{Attr: "salary", Val: abdm.Int(5)})
	if _, err := execOne(rb, abdl.NewInsert(rec)); err != nil {
		t.Fatal(err)
	}
	res, err := execOne(rb, abdl.NewRetrieve(nil, abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 || !res.Records[0].Rec.Equal(rec) {
		t.Errorf("round-tripped record differs: %v", res.Records)
	}
	n, err := rb.Len()
	if err != nil || n != 1 {
		t.Errorf("Len = %d, %v", n, err)
	}
	if srv.Store() != store {
		t.Error("Store() accessor wrong")
	}
}
