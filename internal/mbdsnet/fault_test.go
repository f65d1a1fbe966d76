package mbdsnet

import (
	"bufio"
	"errors"
	"fmt"
	"net"
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
		apply := func() (*kdb.Result, error) {
			if env.Req == nil {
				return nil, nil
			}
			return d.store.Exec(env.Req)
		}
		if atomic.AddInt32(&d.drops, -1) >= 0 {
			_, _ = apply() // executed, but never acknowledged
			return
		}
		reply := wire.Envelope{Seq: env.Seq}
		switch env.Action {
		case "", "exec":
			res, err := apply()
			switch {
			case err != nil:
				reply.Err = err.Error()
			case res != nil:
				reply.Res = res
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

func TestDroppedInsertNotResent(t *testing.T) {
	// A fresh-key INSERT whose connection dies before the reply may have
	// been applied; resending would double-apply it. The client must
	// surface the ambiguity instead.
	store := kdb.NewStore(testDir(t).Clone())
	d := startDroppy(t, store, 1)
	rb, err := Dial(d.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	_, err = rb.Exec(abdl.NewInsert(employee("amb")))
	var amb *AmbiguousError
	if !errors.As(err, &amb) {
		t.Fatalf("err = %v, want AmbiguousError", err)
	}
	if !amb.MaybeApplied() || !amb.Transient() {
		t.Errorf("AmbiguousError flags wrong: %+v", amb)
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d records, want exactly 1 (no double apply)", store.Len())
	}
}

func TestDroppedRetrieveResent(t *testing.T) {
	// Retrieves are idempotent: a mid-exchange failure is retried
	// transparently on a fresh connection.
	store := kdb.NewStore(testDir(t).Clone())
	if _, err := store.Insert(employee("safe")); err != nil {
		t.Fatal(err)
	}
	d := startDroppy(t, store, 1)
	rb, err := Dial(d.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	res, err := rb.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
	if err != nil {
		t.Fatalf("idempotent retrieve not resent: %v", err)
	}
	if len(res.Records) != 1 {
		t.Errorf("retrieve after resend = %d records", len(res.Records))
	}
}

func TestDroppedForcedInsertResent(t *testing.T) {
	// A replica-pinned INSERT overwrites its own key, so re-execution is
	// harmless and the client resends it.
	store := kdb.NewStore(testDir(t).Clone())
	d := startDroppy(t, store, 1)
	rb, err := Dial(d.addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	req := abdl.NewInsert(employee("pinned"))
	req.ForceID = 7
	if _, err := rb.Exec(req); err != nil {
		t.Fatalf("pinned insert not resent: %v", err)
	}
	// Applied twice (once per attempt) but at the same key: one record.
	if store.Len() != 1 {
		t.Fatalf("store has %d records, want 1", store.Len())
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
	_, err = rb.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs))
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

	if _, err := rb.Exec(abdl.NewInsert(employee("pre"))); err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	if !srv.Draining() {
		t.Fatal("Draining() = false after Drain")
	}

	_, err = rb.Exec(abdl.NewInsert(employee("refused")))
	var de *DrainingError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DrainingError", err)
	}
	if !de.Transient() {
		t.Error("DrainingError must be transient (safe to retry elsewhere)")
	}
	if ma, ok := err.(interface{ MaybeApplied() bool }); ok && ma.MaybeApplied() {
		t.Error("DrainingError must not claim maybe-applied: drained requests are never executed")
	}
	if _, err := rb.ExecBatch([]*abdl.Request{abdl.NewInsert(employee("b"))}); !errors.As(err, &de) {
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
