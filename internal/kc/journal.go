package kc

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"mlds/internal/kdb"
	"mlds/internal/txn"
	"mlds/internal/wire"
)

// Journal markers: what one wire.JournalEntry records. A data entry carries a
// mutating request, the key-allocator position (so STORE-assigned keys replay
// identically) and the keys the mutation touched (so change capture applies
// deltas by key). A transaction's data entries are written with its commit
// marker at commit time; data entries no commit marker follows never
// committed. A checkpoint marker records the epoch a page image was taken at
// and the count of committed data entries it covers.
const (
	markerData       byte = 0
	markerCommit     byte = 1
	markerCheckpoint byte = 2
)

// AttachJournal starts logging committed mutations (INSERT, DELETE, UPDATE)
// to w in the wire journal format. Writes are buffered and flushed once per
// commit batch — the group-commit window — so a crash can tear at most the
// final in-flight batch, which recovery treats as clean end-of-log.
// Recovering the stream against a freshly-loaded database reproduces the
// committed mutations in order. Retrievals and aborted transactions are not
// logged.
func (c *Controller) AttachJournal(w io.Writer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jw = bufio.NewWriter(w)
	// Buffered: the header reaches w with the first flush. bufio errors are
	// sticky, so a failure surfaces there.
	c.jw.Write(wire.AppendJournalHeader(nil))
}

// DetachJournal flushes any buffered entries and stops journalling.
func (c *Controller) DetachJournal() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jw != nil {
		c.jw.Flush()
	}
	c.jw = nil
}

// writeJournalLocked writes b — whole framed entries — to the journal with
// one flush and keeps b's storage as the next write's scratch. Caller holds
// c.mu.
func (c *Controller) writeJournalLocked(b []byte) error {
	c.jbuf = b[:0]
	_, err := c.jw.Write(b)
	if err == nil {
		err = c.jw.Flush()
	}
	if err != nil {
		return fmt.Errorf("kc: journal write: %w", err)
	}
	return nil
}

// JournalError reports a mutation the kernel applied that the journal
// failed to record: the store and the recovery log have diverged, and a
// replay of the journal will not reproduce the current database. Applied
// carries the kernel results of the requests that did execute, so callers
// can keep the outcome (the data is durable in the kernel) while handling
// the divergence — typically by re-snapshotting rather than trusting the
// journal.
type JournalError struct {
	Applied []*kdb.Result // results of the round that executed before the journal failed
	Err     error         // the underlying journal write failure
}

// Error describes the divergence.
func (e *JournalError) Error() string {
	return fmt.Sprintf("kc: mutation applied to the kernel but not journalled (store and journal have diverged): %v", e.Err)
}

// Unwrap exposes the underlying journal write failure.
func (e *JournalError) Unwrap() error { return e.Err }

// journalSink adapts the controller to txn.CommitSink: the transaction
// manager hands it commit batches.
type journalSink struct{ c *Controller }

// WriteCommits persists a commit batch: each transaction's data entries
// followed by its commit marker, then one flush for the entire batch. That
// single flush is what makes group commit cheaper than per-statement
// flushing. Without a journal writer the position accounting still runs:
// committed data entries are counted so commit records carry exact positions
// and live change capture works on journal-less controllers. Only re-reading
// history (ReadCommitted) needs the file; a tailer that drops records there
// rebuilds from a fresh snapshot instead.
func (s journalSink) WriteCommits(recs []txn.CommitRecord) error {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jw != nil {
		b := c.jbuf[:0]
		var err error
		for _, rec := range recs {
			for i := range rec.Entries {
				e := &rec.Entries[i]
				if b, err = wire.AppendJournalEntry(b, &wire.JournalEntry{Marker: markerData,
					Txn: rec.ID, Key: e.Key, Req: &e.Req, Affected: e.Affected}); err != nil {
					return fmt.Errorf("kc: journal write: %w", err)
				}
			}
			// A marker is far below the frame bound.
			b, _ = wire.AppendJournalEntry(b, &wire.JournalEntry{Marker: markerCommit, Txn: rec.ID})
		}
		if err := c.writeJournalLocked(b); err != nil {
			return err
		}
	}
	for _, rec := range recs {
		for _, e := range rec.Entries {
			c.jEntries++
			if e.Key > c.jMaxKey {
				c.jMaxKey = e.Key
			}
		}
	}
	return nil
}

// NoteEpoch pairs a just-published commit epoch with the journal position its
// batch was flushed at — the cumulative committed data-entry count and the
// key-allocator high water. A checkpoint whose image is exact at that epoch
// covers exactly that prefix of the journal. Called by the group-commit
// leader under the stamp barrier, after the batch's WriteCommits.
func (s journalSink) NoteEpoch(epoch uint64) {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jPairs == nil {
		c.jPairs = make(map[uint64]ckptPair)
	}
	c.jPairs[epoch] = ckptPair{entries: c.jEntries, maxKey: c.jMaxKey}
	c.jNoted = c.jEntries
}

// JournalPos implements txn.PosReader: the cumulative count of committed
// data entries written to the journal. The group-commit leader reads it once
// per flushed batch to stamp positions onto published CommitRecords.
func (s journalSink) JournalPos() uint64 {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jEntries
}

// RecoverJournal reads a journal stream and re-executes exactly the
// mutations of committed transactions, in commit order: a transaction torn
// mid-commit-batch (no commit marker survives) leaves no trace. It returns
// the number of entries applied; a torn final entry is clean end-of-log.
func (c *Controller) RecoverJournal(r io.Reader) (int, error) {
	n, _, err := c.RecoverJournalFrom(r, 0)
	return n, err
}

// RecoverJournalFrom is RecoverJournal starting past a checkpoint: the first
// skip committed data entries — already reflected in the mounted page image —
// advance the key allocator but are not re-executed; only the tail past them
// is applied. It returns the number of entries applied and the journal's
// total committed-entry position, the figure a subsequent checkpoint resumes
// accounting from. A journal whose leading checkpoint marker claims more
// entries than skip covers a gap the image cannot fill and is refused.
func (c *Controller) RecoverJournalFrom(r io.Reader, skip uint64) (int, uint64, error) {
	n := 0
	pos, err := scanJournal(r, skip, func(e *wire.JournalEntry, pos uint64) error {
		c.SeedKeys(e.Key)
		if e.Marker != markerData || pos <= skip {
			// A checkpoint marker, or an entry covered by the image: only the
			// allocator bookkeeping above matters.
			return nil
		}
		req, err := e.Req.ToRequest()
		if err != nil {
			return fmt.Errorf("kc: journal position %d: %w", pos, err)
		}
		if _, _, err := c.sys.ExecTimed(req); err != nil {
			return fmt.Errorf("kc: replaying journal position %d: %w", pos, err)
		}
		n++
		return nil
	})
	if errors.Is(err, ErrCompacted) {
		err = fmt.Errorf("kc: journal and image do not match: %w", err)
	}
	return n, pos, err
}

// scanJournal is the one journal reader. It hands fn every committed data
// entry in commit order with its position — its 1-based rank among committed
// data entries, the count replay, checkpoints and change capture share — and
// every checkpoint marker with the position it leaves the scan at. Data
// entries wait for their transaction's commit marker, so a transaction the
// log ends inside is never handed out. A rotated journal's leading marker
// skips the truncated prefix; a reader that does not already hold it
// (covered falls short) gets ErrCompacted. It returns the final position.
func scanJournal(r io.Reader, covered uint64, fn func(e *wire.JournalEntry, pos uint64) error) (uint64, error) {
	pos := uint64(0)
	pending := make(map[uint64][]*wire.JournalEntry)
	err := wire.ReadJournal(r, func(e *wire.JournalEntry) error {
		switch e.Marker {
		case markerData:
			if e.Req == nil {
				return errors.New("kc: journal data entry without a request")
			}
			pending[e.Txn] = append(pending[e.Txn], e)
		case markerCommit:
			for _, d := range pending[e.Txn] {
				pos++
				if err := fn(d, pos); err != nil {
					return err
				}
			}
			delete(pending, e.Txn)
		case markerCheckpoint:
			if e.CkptEntries > pos {
				if covered < e.CkptEntries {
					return fmt.Errorf("%w: a checkpoint marker covers %d entries, the reader holds %d",
						ErrCompacted, e.CkptEntries, covered)
				}
				pos = e.CkptEntries
			}
			return fn(e, pos)
		default:
			return fmt.Errorf("kc: journal: unknown marker %d", e.Marker)
		}
		return nil
	})
	return pos, err
}
