package kc

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/txn"
	"mlds/internal/wire"
)

// failWriter fails every write after the first n bytes succeed.
type failWriter struct {
	n    int
	seen int
}

var errDiskFull = errors.New("disk full")

func (w *failWriter) Write(p []byte) (int, error) {
	if w.seen >= w.n {
		return 0, errDiskFull
	}
	w.seen += len(p)
	return len(p), nil
}

func insertX(v int64) *abdl.Request {
	return abdl.NewInsert(abdm.NewRecord("f", abdm.Keyword{Attr: "x", Val: abdm.Int(v)}))
}

// TestJournalFailureSurfacesDivergence covers the store/journal divergence:
// a mutation that applies to the kernel but fails to journal must come back
// as a JournalError carrying the applied result, not as a plain failure —
// and the record must actually be in the store.
func TestJournalFailureSurfacesDivergence(t *testing.T) {
	c := newController(t)
	c.AttachJournal(&failWriter{}) // fails from the first byte

	_, err := c.Exec(insertX(7))
	if err == nil {
		t.Fatal("journalled insert with a failing journal succeeded silently")
	}
	var je *JournalError
	if !errors.As(err, &je) {
		t.Fatalf("error is %T (%v), want *JournalError", err, err)
	}
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("JournalError does not unwrap to the write failure: %v", err)
	}
	if je.Applied == nil || je.Applied.Count != 1 {
		t.Fatalf("JournalError.Applied = %+v, want the applied insert result", je.Applied)
	}
	// The divergence is real: the kernel holds the record the journal lost.
	res, err := c.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(7)}), abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("kernel holds %d records for x=7, want 1 (the un-journalled mutation)", len(res.Records))
	}
}

// TestTxnJournalsMutationsOnly checks a transaction journals its mutations
// (and only those) so a replay reproduces them.
func TestTxnJournalsMutationsOnly(t *testing.T) {
	c1 := newController(t)
	var journal bytes.Buffer
	c1.AttachJournal(&journal)
	reqs := []*abdl.Request{
		insertX(1),
		insertX(2),
		abdl.NewRetrieve(abdm.And(abdm.Predicate{Attr: "x", Op: abdm.OpGe, Val: abdm.Int(0)}), abdl.AllAttrs),
		abdl.NewUpdate(abdm.And(abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(2)}),
			abdl.Modifier{Attr: "x", Val: abdm.Int(3)}),
	}
	tx := c1.Txns().Begin()
	ctx := txn.NewContext(context.Background(), tx)
	for i, req := range reqs {
		res, err := c1.ExecCtx(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if i == 2 && len(res.Records) != 2 {
			t.Fatalf("retrieve in the transaction saw %d records, want 2", len(res.Records))
		}
	}
	if err := c1.Txns().Commit(tx); err != nil {
		t.Fatal(err)
	}

	c2 := newController(t)
	n, err := c2.RecoverJournal(&journal)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("replayed %d journal entries, want 3 (retrieve is not journalled)", n)
	}
	res, err := c2.Exec(abdl.NewRetrieve(abdm.And(
		abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(3)}), abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("replayed database has %d records with x=3, want 1", len(res.Records))
	}
}

// TestJournalSharesCallerRequests: the journal and the commit stream hold
// the caller's request objects, not copies. An auto-keyed INSERT is logged
// under the key it was allocated while the caller's request keeps ForceID 0,
// so the same objects can run again — as a cached plan's do — and replaying
// the journal afterwards rebuilds exactly the live rows.
func TestJournalSharesCallerRequests(t *testing.T) {
	c := newController(t)
	var journal bytes.Buffer
	c.AttachJournal(&journal)
	sub := c.SubscribeCommits(8)
	defer sub.Close()

	ins := insertX(1)
	upd := abdl.NewUpdate(abdm.And(abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(1)}),
		abdl.Modifier{Attr: "x", Val: abdm.Int(10)})
	tx := c.Txns().Begin()
	tctx := txn.NewContext(context.Background(), tx)
	var keys []abdm.RecordID
	for _, req := range []*abdl.Request{ins, ins, upd, ins} {
		res, err := c.ExecCtx(tctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if req == ins {
			keys = append(keys, res.Affected[0])
		}
	}
	if err := c.Txns().Commit(tx); err != nil {
		t.Fatal(err)
	}
	if ins.ForceID != 0 {
		t.Fatalf("journalling pinned key %d on the caller's request", ins.ForceID)
	}

	rec := <-sub.C
	if len(rec.Entries) != 4 {
		t.Fatalf("commit record holds %d entries, want 4", len(rec.Entries))
	}
	if rec.Entries[2].Req != upd {
		t.Error("the commit stream holds a copy of the UPDATE, not the caller's request")
	}
	pinned := []abdm.RecordID{rec.Entries[0].Req.ForceID, rec.Entries[1].Req.ForceID, rec.Entries[3].Req.ForceID}
	if !reflect.DeepEqual(pinned, keys) {
		t.Fatalf("commit stream pinned keys %v, the inserts were allocated %v", pinned, keys)
	}

	// The same objects run again, now outside the transaction.
	for _, req := range []*abdl.Request{ins, upd} {
		if _, err := c.Exec(req); err != nil {
			t.Fatal(err)
		}
	}

	var logged []abdm.RecordID
	if err := wire.ReadJournal(bytes.NewReader(journal.Bytes()), func(e *wire.JournalEntry) error {
		if e.Req != nil && e.Req.Kind == abdl.Insert {
			logged = append(logged, e.Req.ForceID)
			if len(e.Affected) != 1 || abdm.RecordID(e.Affected[0]) != e.Req.ForceID {
				t.Errorf("journalled INSERT pins key %d but affected %v", e.Req.ForceID, e.Affected)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(logged) != 4 || !reflect.DeepEqual(logged[:3], keys) {
		t.Fatalf("journal pins keys %v, want %v and one more", logged, keys)
	}

	rows := func(c *Controller) map[abdm.RecordID]int64 {
		res, err := c.Exec(abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")}), abdl.AllAttrs))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[abdm.RecordID]int64)
		for _, sr := range res.Records {
			v, _ := sr.Rec.Get("x")
			out[sr.ID] = v.AsInt()
		}
		return out
	}
	live := rows(c)
	c2 := newController(t)
	if n, err := c2.RecoverJournal(bytes.NewReader(journal.Bytes())); err != nil || n != 6 {
		t.Fatalf("recover: n=%d err=%v, want 6, nil", n, err)
	}
	if got := rows(c2); len(live) != 4 || !reflect.DeepEqual(got, live) {
		t.Fatalf("replayed rows %v, live rows %v", got, live)
	}
}

// gobJournal is a journal as the pre-framing format wrote it: one gob stream
// of entries, each request in an exported-field form of its own.
func gobJournal(t testing.TB) []byte {
	t.Helper()
	type gobValue struct {
		Kind byte
		I    int64
	}
	type gobKeyword struct {
		Attr string
		Val  gobValue
	}
	type gobRequest struct {
		Kind     int
		HasRec   bool
		Keywords []gobKeyword
	}
	type gobEntry struct {
		Req    gobRequest
		Key    int64
		Txn    uint64
		Marker byte
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, e := range []gobEntry{
		{Req: gobRequest{Kind: int(abdl.Insert), HasRec: true, Keywords: []gobKeyword{
			{Attr: abdm.FileAttr, Val: gobValue{Kind: 's'}}, {Attr: "x", Val: gobValue{Kind: 'i', I: 1}}}},
			Key: 1, Txn: 1},
		{Txn: 1, Marker: 2},
	} {
		if err := enc.Encode(&e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRecoverRefusesGobJournal: a journal from before the framed format must
// be refused, not read as an empty log — recovering nothing from it would
// silently drop every committed mutation it holds. Change capture refuses it
// the same way.
func TestRecoverRefusesGobJournal(t *testing.T) {
	old := gobJournal(t)
	c := newController(t)
	if n, err := c.RecoverJournal(bytes.NewReader(old)); err == nil {
		t.Fatalf("gob journal recovered as %d entries, want an error", n)
	}
	if countX(t, c, 1) != 0 {
		t.Fatal("refused journal applied an entry")
	}
	path := filepath.Join(t.TempDir(), "journal.gob")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := readCommitted(f, 0); err == nil {
		t.Fatal("gob journal read as committed history")
	}
}

// FuzzRecoverJournal feeds arbitrary bytes to recovery: it must return —
// applying a committed prefix or refusing the input — and never panic or
// hang, and what it applies is exactly what change capture reads back from
// the same bytes. Seeds: a real journal, its truncations, and a gob-era
// journal.
func FuzzRecoverJournal(f *testing.F) {
	c := newController(f)
	var journal bytes.Buffer
	c.AttachJournal(&journal)
	tx := c.Txns().Begin()
	tctx := txn.NewContext(context.Background(), tx)
	for _, req := range []*abdl.Request{
		insertX(1),
		abdl.NewUpdate(abdm.And(abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(1)}),
			abdl.Modifier{Attr: "x", Val: abdm.Int(2)}),
	} {
		if _, err := c.ExecCtx(tctx, req); err != nil {
			f.Fatal(err)
		}
	}
	if err := c.Txns().Commit(tx); err != nil {
		f.Fatal(err)
	}
	if _, err := c.Exec(abdl.NewDelete(abdm.And(abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(2)}))); err != nil {
		f.Fatal(err)
	}
	full := journal.Bytes()
	for _, cut := range []int{0, 3, 5, 7, len(full) / 2, len(full) - 1, len(full)} {
		f.Add(full[:cut])
	}
	f.Add(gobJournal(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := newController(t)
		n, err := c.RecoverJournal(bytes.NewReader(data))
		if err != nil {
			return
		}
		got, err := readCommitted(bytes.NewReader(data), 0)
		if err != nil || len(got) != n {
			t.Fatalf("recovery applied %d entries, change capture reads %d (err %v)", n, len(got), err)
		}
	})
}

// stallWriter blocks every write until release is closed and announces the
// first one on entered.
type stallWriter struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (w *stallWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	return len(p), nil
}

// TestStatementsPassAStalledJournalWrite: the group-commit leader holds the
// controller's mutex across the journal write. Statements of other
// transactions on other keys — an autocommit read, and an INSERT inside an
// open transaction, which reads the key allocator for its redo record — must
// not queue behind it.
func TestStatementsPassAStalledJournalWrite(t *testing.T) {
	c := newController(t)
	w := &stallWriter{entered: make(chan struct{}), release: make(chan struct{})}
	release := sync.OnceFunc(func() { close(w.release) })
	defer release()
	c.AttachJournal(w)
	committed := make(chan error, 1)
	go func() {
		_, err := c.Exec(insertX(1))
		committed <- err
	}()
	<-w.entered

	done := make(chan error, 1)
	go func() {
		read := abdl.NewRetrieve(abdm.And(
			abdm.Predicate{Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String("f")},
			abdm.Predicate{Attr: "x", Op: abdm.OpEq, Val: abdm.Int(2)}), abdl.AllAttrs)
		if _, err := c.Exec(read); err != nil {
			done <- err
			return
		}
		tx := c.Txns().Begin()
		if _, err := c.ExecCtx(txn.NewContext(context.Background(), tx), insertX(3)); err != nil {
			done <- err
			return
		}
		done <- c.Txns().Abort(tx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("statements queued behind the stalled journal write")
	}
	release()
	if err := <-committed; err != nil {
		t.Fatal(err)
	}
}
