package mbdsnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
	"mlds/internal/mbds"
	"mlds/internal/wire"
)

// droppyServer is a backend that, for the first `drops` requests, executes
// the request against its store but closes the connection without replying —
// modeling a backend that crashes between applying a request and
// acknowledging it. Subsequent requests are served normally.
type droppyServer struct {
	ln    net.Listener
	store *kdb.Store
	drops int32
	wg    sync.WaitGroup
}

func startDroppy(t *testing.T, store *kdb.Store, drops int32) *droppyServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &droppyServer{ln: ln, store: store, drops: drops}
	d.wg.Add(1)
	go d.accept()
	t.Cleanup(func() {
		_ = ln.Close()
		d.wg.Wait()
	})
	return d
}

func (d *droppyServer) addr() string { return d.ln.Addr().String() }

func (d *droppyServer) accept() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return
		}
		d.wg.Add(1)
		go d.serve(conn)
	}
}

func (d *droppyServer) serve(conn net.Conn) {
	defer d.wg.Done()
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		envp, err := wire.ReadEnvelope(br, 0)
		if err != nil {
			return
		}
		env := *envp
		apply := func() ([]*kdb.Result, error) {
			if env.Action != "execbatch" {
				return nil, nil
			}
			rs := make([]*kdb.Result, len(env.Reqs))
			return rs, d.store.ExecBatch(env.Reqs, rs)
		}
		if atomic.AddInt32(&d.drops, -1) >= 0 {
			_, _ = apply() // executed, but never acknowledged
			return
		}
		reply := wire.Envelope{Seq: env.Seq}
		switch env.Action {
		case "execbatch":
			rs, err := apply()
			if err != nil {
				reply.Err = err.Error()
			} else {
				reply.Results = rs
			}
		case "len":
			reply.N = d.store.Len()
		}
		if err := wire.WriteEnvelope(bw, &reply); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

func employee(name string) *abdm.Record {
	return abdm.NewRecord("employee",
		abdm.Keyword{Attr: "name", Val: abdm.String(name)},
		abdm.Keyword{Attr: "dept", Val: abdm.String("CS")},
		abdm.Keyword{Attr: "salary", Val: abdm.Int(1)})
}

// oneBackend builds a controller over a single remote executor.
func oneBackend(t *testing.T, cfg mbds.Config, addr string) *mbds.System {
	t.Helper()
	rb, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rb.Close() })
	sys, err := mbds.NewWithExecutors(testDir(t), cfg, []mbds.Executor{rb})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return sys
}

func TestDroppedInsertNotResent(t *testing.T) {
	// The client makes one attempt: a connection that dies before the reply
	// surfaces as a transient DownError (the request may have run), and the
	// client itself never resends, so the store holds exactly one copy.
	store := kdb.NewStore(testDir(t).Clone())
	d := startDroppy(t, store, 1)
	rb, err := Dial(d.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	_, err = execOne(rb, abdl.NewInsert(employee("amb")))
	var down *DownError
	if !errors.As(err, &down) {
		t.Fatalf("err = %v, want DownError", err)
	}
	if !down.Transient() {
		t.Error("DownError must be transient")
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d records, want exactly 1 (no resend below mbds)", store.Len())
	}
}

func TestDroppedRetrieveResent(t *testing.T) {
	// A connection dropped once mid-exchange costs the controller one retry:
	// mbds resends the round on a fresh connection and the RETRIEVE returns
	// every record.
	store := kdb.NewStore(testDir(t).Clone())
	if _, err := store.Insert(employee("safe")); err != nil {
		t.Fatal(err)
	}
	d := startDroppy(t, store, 1)
	sys := oneBackend(t, mbds.DefaultConfig(1), d.addr())

	res, err := sys.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
	if err != nil {
		t.Fatalf("retrieve not resent by the controller: %v", err)
	}
	if len(res.Records) != 1 {
		t.Errorf("retrieve after resend = %d records", len(res.Records))
	}
	if h := sys.Health()[0]; h.Retries != 1 {
		t.Errorf("health = %+v, want exactly one retry", h)
	}
}

func TestDroppedForcedInsertResent(t *testing.T) {
	// The controller pins every INSERT to its key, so the resend after a
	// dropped reply overwrites the copy the first attempt left: one record.
	store := kdb.NewStore(testDir(t).Clone())
	d := startDroppy(t, store, 1)
	sys := oneBackend(t, mbds.DefaultConfig(1), d.addr())

	if _, err := sys.Exec(abdl.NewInsert(employee("pinned"))); err != nil {
		t.Fatalf("insert not resent by the controller: %v", err)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d records, want 1", store.Len())
	}
}

// hangUp is a listener that accepts every connection and closes it at once,
// counting them.
type hangUp struct {
	ln    net.Listener
	conns atomic.Int64
	wg    sync.WaitGroup
}

func startHangUp(t *testing.T) *hangUp {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &hangUp{ln: ln}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			h.conns.Add(1)
			_ = conn.Close()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		h.wg.Wait()
	})
	return h
}

// TestOneConnectionPerAttempt: against a backend that hangs up on every
// connection, one controller call opens at most one connection per attempt
// — 1 + MaxRetries — and fails with the client's DownError.
func TestOneConnectionPerAttempt(t *testing.T) {
	h := startHangUp(t)
	cfg := mbds.DefaultConfig(1)
	sys := oneBackend(t, cfg, h.ln.Addr().String())

	before := h.conns.Load()
	_, err := sys.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
	var down *DownError
	if !errors.As(err, &down) {
		t.Fatalf("err = %v, want DownError", err)
	}
	if n := h.conns.Load() - before; n > int64(1+cfg.MaxRetries) {
		t.Fatalf("one call opened %d connections, want at most %d", n, 1+cfg.MaxRetries)
	}
}

// exportVia is a remote backend whose export verb goes to another address.
type exportVia struct {
	*RemoteBackend
	export *RemoteBackend
}

func (e exportVia) ExportSince(since uint64, after abdm.RecordID, limit int) ([]kdb.MigRecord, abdm.RecordID, uint64, error) {
	return e.export.ExportSince(since, after, limit)
}

// TestDrainFailedExportKeepsView: a drain whose last source fails its one
// export attempt fails, and leaves the view and every partition — the
// copies the earlier sources already imported dropped again — as they were.
func TestDrainFailedExportKeepsView(t *testing.T) {
	const n = 3
	dir := testDir(t)
	h := startHangUp(t)
	stores := make([]*kdb.Store, n)
	var execs []mbds.Executor
	for i := range stores {
		stores[i] = kdb.NewStore(dir.Clone())
		srv, err := Listen("127.0.0.1:0", stores[i])
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
	bad, err := Dial(h.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bad.Close() })
	execs[n-1] = exportVia{execs[n-1].(*RemoteBackend), bad}
	sys, err := mbds.NewWithExecutors(dir, mbds.DefaultConfig(n), execs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	loadCluster(t, sys, 60)

	ids := func() [][]abdm.RecordID {
		out := make([][]abdm.RecordID, n)
		for i, st := range stores {
			snap, err := st.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			for _, sr := range snap {
				out[i] = append(out[i], sr.ID)
			}
		}
		return out
	}
	before := ids()
	epoch := sys.MembershipEpoch()
	if err := sys.DrainBackend(0); err == nil {
		t.Fatal("drain with a failing export succeeded")
	}
	if sys.Backends() != n || sys.MembershipEpoch() != epoch {
		t.Fatalf("failed drain changed the view: %d backends, epoch %d -> %d", sys.Backends(), epoch, sys.MembershipEpoch())
	}
	if got := ids(); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed drain changed the partitions:\n got %v\nwant %v", got, before)
	}
	res, err := sys.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 60 {
		t.Fatalf("retrieve after the failed drain = %d records, want 60", len(res.Records))
	}
}

func TestUnreachableBackendDownError(t *testing.T) {
	store := kdb.NewStore(testDir(t).Clone())
	srv, err := Listen("127.0.0.1:0", store)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = execOne(rb, abdl.NewRetrieve(nil, abdl.AllAttrs))
	var down *DownError
	if !errors.As(err, &down) {
		t.Fatalf("err = %v, want DownError", err)
	}
	if !down.Transient() {
		t.Error("DownError must be transient")
	}
}

// TestClusterSurvivesKilledBackend is the end-to-end acceptance scenario:
// with Replicas=1 over TCP backends, killing one backend mid-workload leaves
// retrieve results identical to the healthy run, Health reports the backend
// down, and a restarted backend is probed back up.
func TestClusterSurvivesKilledBackend(t *testing.T) {
	const n = 3
	dir := testDir(t)
	cfg := mbds.DefaultConfig(n)
	cfg.Replicas = 1
	cfg.RequestTimeout = 500 * time.Millisecond
	cfg.MaxRetries = 1
	cfg.RetryBackoff = time.Millisecond
	cfg.BreakerThreshold = 2
	cfg.ProbePeriod = 5 * time.Millisecond

	stores := make([]*kdb.Store, n)
	servers := make([]*BackendServer, n)
	var execs []mbds.Executor
	for i := 0; i < n; i++ {
		stores[i] = kdb.NewStore(dir.Clone())
		srv, err := Listen("127.0.0.1:0", stores[i])
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		t.Cleanup(func() { _ = srv.Close() })
		rb, err := Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = rb.Close() })
		execs = append(execs, rb)
	}
	sys, err := mbds.NewWithExecutors(dir, cfg, execs)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)

	names := func() []string {
		t.Helper()
		res, err := sys.Exec(abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("employee")},
		), "name"))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 0, len(res.Records))
		for _, sr := range res.Records {
			v, _ := sr.Rec.Get("name")
			out = append(out, v.AsString())
		}
		sort.Strings(out)
		return out
	}

	for i := 0; i < 30; i++ {
		if _, err := sys.Exec(abdl.NewInsert(employee(fmt.Sprintf("emp%03d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	healthy := names()
	if len(healthy) != 30 {
		t.Fatalf("healthy retrieve = %d records", len(healthy))
	}

	// Kill backend 1 mid-workload.
	addr := servers[1].Addr()
	if err := servers[1].Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		got := names()
		if len(got) != len(healthy) {
			t.Fatalf("degraded retrieve %d = %d records, want %d", i, len(got), len(healthy))
		}
		for j := range got {
			if got[j] != healthy[j] {
				t.Fatalf("degraded retrieve differs at %d: %q vs %q", j, got[j], healthy[j])
			}
		}
	}
	if h := sys.Health()[1]; h.Up {
		t.Fatalf("killed backend not reported down: %+v", h)
	}

	// Writes keep landing while the backend is dead: every record has at
	// least one live replica holder.
	for i := 0; i < 10; i++ {
		if _, err := sys.Exec(abdl.NewInsert(employee(fmt.Sprintf("down%03d", i)))); err != nil {
			t.Fatalf("insert with dead backend: %v", err)
		}
	}
	if got := names(); len(got) != 40 {
		t.Fatalf("degraded retrieve after inserts = %d, want 40", len(got))
	}

	// Restart the backend on the same address and let the probe find it.
	srv2, err := Listen(addr, stores[1])
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = srv2.Close() })
	recovered := false
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		names()
		if sys.Health()[1].Up {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("restarted backend never recovered: %+v", sys.Health()[1])
	}
	if got := names(); len(got) != 40 {
		t.Fatalf("post-recovery retrieve = %d, want 40", len(got))
	}
}

func TestDrainTypedRefusal(t *testing.T) {
	// A draining backend must answer exec traffic with a typed, retryable
	// refusal on the live connection — not the raw reset Close causes —
	// and the refusal must promise the request was never executed.
	store := kdb.NewStore(testDir(t).Clone())
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

	if _, err := execOne(rb, abdl.NewInsert(employee("pre"))); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain")
	}

	_, err = execOne(rb, abdl.NewInsert(employee("refused")))
	var de *DrainingError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DrainingError", err)
	}
	if !de.Transient() {
		t.Error("DrainingError must be transient (safe to retry elsewhere)")
	}
	if err := rb.ExecBatch([]*abdl.Request{abdl.NewInsert(employee("b"))}, make([]*kdb.Result, 1)); !errors.As(err, &de) {
		t.Fatalf("batch err = %v, want DrainingError", err)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d records, want 1 (refused inserts must not apply)", store.Len())
	}

	// Maintenance verbs keep working during drain: migration needs them.
	if n, err := rb.Len(); err != nil || n != 1 {
		t.Fatalf("Len during drain = %d, %v", n, err)
	}
	if _, _, _, err := rb.ExportSince(0, 0, 10); err != nil {
		t.Fatalf("ExportSince during drain: %v", err)
	}
}
