package kc

import (
	"errors"
	"fmt"
	"io"
	"os"

	"mlds/internal/txn"
	"mlds/internal/wire"
)

// ErrCompacted reports a journal read that asked for positions a checkpoint
// has already truncated away: the requested range is covered only by a page
// image, from which per-record deltas cannot be reconstructed. Tailers that
// hit it must re-snapshot instead of resuming.
var ErrCompacted = errors.New("kc: journal compacted past the requested position")

// ErrNoJournalFile reports that the controller's journal is not file-backed
// (AttachJournal on a plain writer, or no journal at all), so committed
// history cannot be re-read for resynchronization.
var ErrNoJournalFile = errors.New("kc: journal is not file-backed; cannot re-read committed history")

// CommittedEntry is one committed journal data entry in commit order. Pos is
// its 1-based position among all committed data entries — the same counting
// replay and the fuzzy-checkpoint epoch pairing use — so a tailer that knows
// the last position it delivered can ask for exactly the rest.
type CommittedEntry struct {
	Pos uint64
	Txn uint64
	Rec txn.JournalRec // the redo record, as the live commit stream carries it
}

// JournalPos reports the journal's committed data-entry count: the position
// a fully caught-up tailer sits at.
func (c *Controller) JournalPos() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.jEntries
}

// WatchSnapshot begins a snapshot transaction and returns it together with
// the journal position its pinned epoch corresponds to: every committed data
// entry at a position <= pos is visible inside the snapshot, and every entry
// past it is not. A watch loads its initial state through the transaction and
// tails the journal from pos — no gaps, no duplicates.
//
// The snapshot is taken under the stamp barrier, where the clock's epoch is
// the one the last NoteEpoch published (or the recovery seed), so its
// position is the last noted one — not jEntries, which also counts a batch
// that has flushed but not yet stamped and is invisible to the snapshot.
func (c *Controller) WatchSnapshot() (*txn.Txn, uint64) {
	var (
		tx  *txn.Txn
		pos uint64
	)
	c.txns.WithStampBarrier(func() {
		tx = c.txns.BeginSnapshot()
		c.mu.Lock()
		pos = c.jNoted
		c.mu.Unlock()
	})
	return tx, pos
}

// ReadCommitted re-reads the attached journal file and returns every
// committed data entry with position > after, in commit order. It is the
// resynchronization path of a lossless tailer: when the live commit stream
// drops records, the dropped range is re-read from disk. Entries are durable
// before commit records are published, so any range a subscriber ever saw
// announced is readable here — unless a checkpoint rotation truncated it,
// which returns ErrCompacted.
func (c *Controller) ReadCommitted(after uint64) ([]CommittedEntry, error) {
	c.mu.Lock()
	jf := c.jf
	if jf == nil {
		c.mu.Unlock()
		return nil, ErrNoJournalFile
	}
	path := jf.Path()
	c.mu.Unlock()

	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("kc: read journal: %w", err)
	}
	defer f.Close()
	return readCommitted(f, after)
}

// readCommitted collects the committed data entries of one journal stream
// past after.
func readCommitted(r io.Reader, after uint64) ([]CommittedEntry, error) {
	var out []CommittedEntry
	_, err := scanJournal(r, after, func(e *wire.JournalEntry, pos uint64) error {
		if e.Marker == markerData && pos > after {
			out = append(out, CommittedEntry{Pos: pos, Txn: e.Txn,
				Rec: txn.JournalRec{Req: e.Req, Key: e.Key, Affected: e.Affected}})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
