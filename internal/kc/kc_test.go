package kc

import (
	"bytes"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/mbds"
	"mlds/internal/wire"
)

func newController(t testing.TB) *Controller {
	t.Helper()
	dir := abdm.NewDirectory()
	if err := dir.DefineAttr("x", abdm.KindInt); err != nil {
		t.Fatal(err)
	}
	if err := dir.DefineFile("f", []string{"x"}); err != nil {
		t.Fatal(err)
	}
	sys, err := mbds.New(dir, mbds.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Close)
	return New(sys)
}

func TestControllerExec(t *testing.T) {
	c := newController(t)
	ins := abdl.NewInsert(abdm.NewRecord("f", abdm.Keyword{Attr: "x", Val: abdm.Int(1)}))
	if _, err := c.Exec(ins); err != nil {
		t.Fatal(err)
	}
	res, err := c.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(1)}), abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Errorf("records = %d", len(res.Records))
	}
	if c.SimTime() <= 0 {
		t.Error("simulated time should accumulate")
	}
	if c.System() == nil {
		t.Error("System() nil")
	}
}

func TestControllerKeys(t *testing.T) {
	c := newController(t)
	if k := c.NextKey(); k != 1 {
		t.Errorf("first key = %d", k)
	}
	c.SeedKeys(100)
	if k := c.NextKey(); k != 101 {
		t.Errorf("seeded key = %d", k)
	}
	// Seeding backwards must not rewind.
	c.SeedKeys(5)
	if k := c.NextKey(); k != 102 {
		t.Errorf("key after backwards seed = %d", k)
	}
}

func TestControllerTrace(t *testing.T) {
	c := newController(t)
	req := abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(1)}), abdl.AllAttrs)
	// Not tracing yet.
	if _, err := c.Exec(req); err != nil {
		t.Fatal(err)
	}
	if len(c.Trace()) != 0 {
		t.Error("trace recorded while off")
	}
	c.StartTrace()
	if _, err := c.Exec(req); err != nil {
		t.Fatal(err)
	}
	tr := c.Trace()
	if len(tr) != 1 || tr[0] != req.String() {
		t.Errorf("trace = %v", tr)
	}
	c.StopTrace()
	if _, err := c.Exec(req); err != nil {
		t.Fatal(err)
	}
	if len(c.Trace()) != 1 {
		t.Error("trace grew after StopTrace")
	}
	// StartTrace clears the old trace.
	c.StartTrace()
	if len(c.Trace()) != 0 {
		t.Error("StartTrace did not clear")
	}
}

func TestControllerExecError(t *testing.T) {
	c := newController(t)
	bad := abdl.NewInsert(abdm.NewRecord("nosuchfile"))
	if _, err := c.Exec(bad); err == nil {
		t.Error("invalid request accepted")
	}
}

func TestJournalReplay(t *testing.T) {
	// Mutations on one controller replay onto a fresh kernel.
	c1 := newController(t)
	var journal bytes.Buffer
	c1.AttachJournal(&journal)
	for i := int64(1); i <= 5; i++ {
		ins := abdl.NewInsert(abdm.NewRecord("f", abdm.Keyword{Attr: "x", Val: abdm.Int(i)}))
		if _, err := c1.Exec(ins); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c1.Exec(abdl.NewUpdate(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(3)}),
		abdl.Modifier{Attr: "x", Val: abdm.Int(30)})); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Exec(abdl.NewDelete(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(1)}))); err != nil {
		t.Fatal(err)
	}
	c1.SeedKeys(42)
	ins := abdl.NewInsert(abdm.NewRecord("f", abdm.Keyword{Attr: "x", Val: abdm.Int(99)}))
	if _, err := c1.Exec(ins); err != nil {
		t.Fatal(err)
	}
	// Retrievals are not journalled.
	if _, err := c1.Exec(abdl.NewRetrieve(nil, abdl.AllAttrs)); err != nil {
		t.Fatal(err)
	}

	c2 := newController(t)
	n, err := c2.RecoverJournal(&journal)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8 { // 5 inserts + update + delete + final insert
		t.Errorf("replayed %d entries", n)
	}
	a, err := c1.System().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c2.System().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("snapshots differ in size: %d vs %d", len(a), len(b))
	}
	seen := map[string]int{}
	for _, sr := range a {
		seen[sr.Rec.Key()]++
	}
	for _, sr := range b {
		seen[sr.Rec.Key()]--
	}
	for k, v := range seen {
		if v != 0 {
			t.Fatalf("content diverged at %q", k)
		}
	}
	// Key allocator restored past the seed.
	if k := c2.NextKey(); k <= 42 {
		t.Errorf("replayed key allocator = %d, want > 42", k)
	}
}

func TestJournalDetach(t *testing.T) {
	c := newController(t)
	var journal bytes.Buffer
	c.AttachJournal(&journal)
	ins := abdl.NewInsert(abdm.NewRecord("f", abdm.Keyword{Attr: "x", Val: abdm.Int(1)}))
	if _, err := c.Exec(ins); err != nil {
		t.Fatal(err)
	}
	size := journal.Len()
	if size == 0 {
		t.Fatal("nothing journalled")
	}
	c.DetachJournal()
	if _, err := c.Exec(ins); err != nil {
		t.Fatal(err)
	}
	if journal.Len() != size {
		t.Error("journal grew after detach")
	}
}

func TestJournalReplayGarbage(t *testing.T) {
	c := newController(t)
	// A complete but corrupt frame must be rejected. (A *truncated* trailing
	// frame is different: that is the torn final entry of a crash
	// mid-write, which recovery treats as clean end-of-log.)
	corrupt := append(wire.AppendJournalHeader(nil), 1, 0, 0, 0, 0) // one-byte frame: a marker, nothing else
	if _, err := c.RecoverJournal(bytes.NewReader(corrupt)); err == nil {
		t.Error("corrupt journal accepted")
	}
}
