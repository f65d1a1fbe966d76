package kc

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

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
	if len(je.Applied) != 1 || je.Applied[0] == nil || je.Applied[0].Count != 1 {
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

// TestExecBatchJournalsMutations checks a batched round journals its
// mutations (and only those) so a replay reproduces the batch.
func TestExecBatchJournalsMutations(t *testing.T) {
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
	results, err := c1.ExecBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("batch returned %d results, want 4", len(results))
	}
	if len(results[2].Records) != 2 {
		t.Fatalf("batched retrieve saw %d records, want 2", len(results[2].Records))
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

// TestExecBatchJournalFailure: a batch whose journal write fails surfaces
// one JournalError carrying every applied result.
func TestExecBatchJournalFailure(t *testing.T) {
	c := newController(t)
	c.AttachJournal(&failWriter{})
	_, err := c.ExecBatch([]*abdl.Request{insertX(1), insertX(2)})
	var je *JournalError
	if !errors.As(err, &je) {
		t.Fatalf("error is %T (%v), want *JournalError", err, err)
	}
	if len(je.Applied) != 2 {
		t.Fatalf("JournalError.Applied has %d results, want both applied inserts", len(je.Applied))
	}
}

// gobJournal is a journal as the pre-framing format wrote it: one gob stream
// of entries.
func gobJournal(t testing.TB) []byte {
	t.Helper()
	type gobEntry struct {
		Req    wire.Request
		Key    int64
		Txn    uint64
		Marker byte
	}
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, e := range []gobEntry{
		{Req: wire.FromRequest(insertX(1)), Key: 1, Txn: 1},
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
