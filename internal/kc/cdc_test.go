package kc

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/txn"
	"mlds/internal/wire"
)

// journalStream builds a synthetic journal with the production encoder.
func journalStream(t *testing.T, entries ...wire.JournalEntry) *bytes.Buffer {
	t.Helper()
	b := wire.AppendJournalHeader(nil)
	for i := range entries {
		var err error
		if b, err = wire.AppendJournalEntry(b, &entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	return bytes.NewBuffer(b)
}

func dataEntry(txnID uint64, x int64, affected ...uint64) wire.JournalEntry {
	req := wire.FromRequest(abdl.NewInsert(abdm.NewRecord("f", abdm.Keyword{Attr: "x", Val: abdm.Int(x)})))
	return wire.JournalEntry{Req: &req, Txn: txnID, Marker: markerData, Affected: affected}
}

func commitMarker(txnID uint64) wire.JournalEntry {
	return wire.JournalEntry{Txn: txnID, Marker: markerCommit}
}

// TestReadCommittedOrdering: positions count committed data entries in commit
// order — an early-begun transaction that commits late sits after the one
// that committed first, and a transaction with no commit marker vanishes.
func TestReadCommittedOrdering(t *testing.T) {
	stream := journalStream(t,
		dataEntry(1, 10, 101), // txn 1 writes first...
		dataEntry(2, 20, 102),
		commitMarker(2),       // ...but txn 2 commits first
		dataEntry(3, 40, 104), // never committed: no positions
		commitMarker(1),
	)
	got, err := readCommitted(stream, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2: %+v", len(got), got)
	}
	wantTxns := []uint64{2, 1}
	for i, e := range got {
		if e.Pos != uint64(i+1) {
			t.Errorf("entry %d at pos %d", i, e.Pos)
		}
		if e.Txn != wantTxns[i] {
			t.Errorf("entry %d from txn %d, want %d", i, e.Txn, wantTxns[i])
		}
	}
	if len(got[0].Rec.Affected) != 1 || got[0].Rec.Affected[0] != 102 {
		t.Errorf("affected keys lost: %+v", got[0])
	}
}

// TestReadCommittedAfter: the cursor argument skips exactly the delivered
// prefix.
func TestReadCommittedAfter(t *testing.T) {
	stream := journalStream(t,
		dataEntry(1, 10),
		dataEntry(1, 20),
		dataEntry(1, 30),
		commitMarker(1),
	)
	got, err := readCommitted(stream, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Pos != 3 {
		t.Fatalf("after=2 returned %+v, want only position 3", got)
	}
}

// TestReadCommittedCompacted: a rotated journal's leading checkpoint marker
// refuses cursors that predate the truncation, and accepts ones past it. A
// marker that truncated nothing (written mid-stream) refuses no cursor.
func TestReadCommittedCompacted(t *testing.T) {
	entries := []wire.JournalEntry{
		{Marker: markerCheckpoint, CkptEpoch: 7, CkptEntries: 5},
		dataEntry(9, 60),
		commitMarker(9),
		{Marker: markerCheckpoint, CkptEpoch: 8, CkptEntries: 6},
	}
	if _, err := readCommitted(journalStream(t, entries...), 3); !errors.Is(err, ErrCompacted) {
		t.Fatalf("cursor inside the truncated range: err = %v, want ErrCompacted", err)
	}
	got, err := readCommitted(journalStream(t, entries...), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Pos != 6 {
		t.Fatalf("post-checkpoint read = %+v, want position 6", got)
	}
}

// TestReadCommittedTornTail: a final entry torn mid-write is clean
// end-of-log — everything before it is returned without error.
func TestReadCommittedTornTail(t *testing.T) {
	stream := journalStream(t,
		dataEntry(1, 10),
		commitMarker(1),
		dataEntry(2, 20),
	)
	full := stream.Bytes()
	torn := full[:len(full)-3]
	got, err := readCommitted(bytes.NewReader(torn), 0)
	if err != nil {
		t.Fatalf("torn tail: %v", err)
	}
	if len(got) != 1 || got[0].Pos != 1 {
		t.Fatalf("torn tail returned %+v, want just the committed entry", got)
	}
	// An uncommitted trailing transaction (intact but no commit marker) also
	// yields nothing.
	got, err = readCommitted(bytes.NewReader(full), 0)
	if err != nil || len(got) != 1 {
		t.Fatalf("uncommitted tail: %v, %+v", err, got)
	}
}

func TestReadCommittedUnknownMarker(t *testing.T) {
	stream := journalStream(t, wire.JournalEntry{Marker: 99})
	if _, err := readCommitted(stream, 0); err == nil {
		t.Fatal("unknown marker accepted")
	}
}

// TestReadCommittedNoFile: a controller journalling to a plain writer cannot
// re-read history.
func TestReadCommittedNoFile(t *testing.T) {
	c := newController(t)
	if _, err := c.ReadCommitted(0); !errors.Is(err, ErrNoJournalFile) {
		t.Fatalf("no journal: %v", err)
	}
	var buf bytes.Buffer
	c.AttachJournal(&buf)
	if _, err := c.ReadCommitted(0); !errors.Is(err, ErrNoJournalFile) {
		t.Fatalf("plain-writer journal: %v", err)
	}
}

// TestWatchSnapshotExact: the position returned with a watch snapshot is
// exactly the committed prefix the snapshot sees — entries past it are
// invisible inside the transaction and re-readable from the journal.
func TestWatchSnapshotExact(t *testing.T) {
	c := newController(t)
	jf, err := OpenJournalFile(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachJournalFile(jf); err != nil {
		t.Fatal(err)
	}
	defer jf.Close()

	tx0, pos0 := c.WatchSnapshot()
	if pos0 != 0 {
		t.Fatalf("fresh controller snapshot at position %d", pos0)
	}
	c.Txns().Commit(tx0)

	for v := int64(1); v <= 3; v++ {
		if _, err := c.Exec(insertX(v)); err != nil {
			t.Fatal(err)
		}
	}
	tx, pos := c.WatchSnapshot()
	defer c.Txns().Commit(tx)
	if pos != 3 {
		t.Fatalf("snapshot position = %d, want 3", pos)
	}
	// A commit after the snapshot is invisible inside it...
	if _, err := c.Exec(insertX(4)); err != nil {
		t.Fatal(err)
	}
	res, err := c.ExecCtx(txn.NewContext(context.Background(), tx),
		abdl.NewRetrieve(abdm.And(abdm.Predicate{Attr: "x", Op: abdm.OpGe, Val: abdm.Int(0)}), abdl.AllAttrs))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 3 {
		t.Fatalf("snapshot sees %d records, want the 3 before it", len(res.Records))
	}
	// ...and exactly recoverable from the journal past pos.
	tail, err := c.ReadCommitted(pos)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 1 || tail[0].Pos != 4 {
		t.Fatalf("journal tail past the snapshot = %+v", tail)
	}
}

// TestWatchSnapshotUnderLoad hammers WatchSnapshot against a concurrent
// writer: for every snapshot, the visible row count must equal the returned
// journal position (each commit writes exactly one entry). This is the
// gap/duplicate seam of the whole CDC pipeline.
func TestWatchSnapshotUnderLoad(t *testing.T) {
	c := newController(t)
	jf, err := OpenJournalFile(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AttachJournalFile(jf); err != nil {
		t.Fatal(err)
	}
	defer jf.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := int64(1); ; v++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Exec(insertX(v)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		tx, pos := c.WatchSnapshot()
		res, err := c.ExecCtx(txn.NewContext(context.Background(), tx),
			abdl.NewRetrieve(abdm.And(abdm.Predicate{Attr: "x", Op: abdm.OpGe, Val: abdm.Int(0)}), abdl.AllAttrs))
		c.Txns().Commit(tx)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(len(res.Records)) != pos {
			close(stop)
			wg.Wait()
			t.Fatalf("snapshot %d: sees %d rows but claims journal position %d", i, len(res.Records), pos)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCommitRecordStamping: published commit records carry the journal
// position and commit epoch the lossless tailer keys on.
func TestCommitRecordStamping(t *testing.T) {
	c := newController(t)
	var buf bytes.Buffer
	c.AttachJournal(&buf)
	sub := c.SubscribeCommits(16)
	defer sub.Close()

	if _, err := c.Exec(insertX(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecBatch([]*abdl.Request{insertX(2), insertX(3)}); err != nil {
		t.Fatal(err)
	}
	rec1 := <-sub.C
	rec2 := <-sub.C
	if rec1.Pos != 1 || len(rec1.Entries) != 1 {
		t.Fatalf("first record stamped %+v, want pos 1", rec1)
	}
	if rec2.Pos != 3 || len(rec2.Entries) != 2 {
		t.Fatalf("batch record stamped pos %d with %d entries, want pos 3", rec2.Pos, len(rec2.Entries))
	}
	if rec1.Epoch == 0 || rec2.Epoch <= rec1.Epoch {
		t.Fatalf("epochs not increasing: %d then %d", rec1.Epoch, rec2.Epoch)
	}
	if len(rec1.Entries[0].Affected) != 1 {
		t.Fatalf("commit record lost affected keys: %+v", rec1.Entries[0])
	}
}
