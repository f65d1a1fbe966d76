package kc

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"time"

	"mlds/internal/kdb"
	"mlds/internal/pager"
	"mlds/internal/wire"
)

// Fuzzy checkpoints.
//
// A checkpoint binds a page-file generation to an exact journal position:
// the image holds the effects of precisely the first N committed data
// entries, so recovery mounts the image and replays only the tail past N.
// Exactness matters — journal replay is not idempotent (an UPDATE's
// qualification can re-match records its own earlier replay rewrote) — and
// is obtained from two fences:
//
//   - The transaction manager's stamp barrier: CheckpointBegin runs inside
//     it, so the backing's applied epoch is a whole-batch boundary, never
//     the middle of a stamp broadcast.
//   - The sink's epoch pairing: the group-commit leader calls NoteEpoch
//     after each batch is durable and stamped, still under the barrier, so
//     the controller knows the exact journal prefix every epoch corresponds
//     to.
//
// Between CheckpointBegin and CheckpointCommit the store defers
// write-throughs behind its fence while group commit, stamping and reads
// all proceed — the checkpoint's pool flush and page-file commit never
// stall the commit path.

// ckptPair is the journal position a commit epoch was published at.
type ckptPair struct {
	entries uint64 // cumulative committed data entries in the journal
	maxKey  int64  // key-allocator position as of that prefix
}

// ErrCheckpointUnaligned reports a checkpoint attempt at an epoch the
// journal has no position pairing for — typically a store whose backing
// applied epochs the attached journal never saw (mixed direct writes), or a
// controller that was not seeded after recovery (SeedRecovery).
var ErrCheckpointUnaligned = errors.New("kc: checkpoint epoch has no journal position")

// CheckpointInfo describes a completed checkpoint.
type CheckpointInfo struct {
	Meta    pager.Meta // metadata committed into the page file
	Rotated bool       // the journal was truncated to a fresh file
	Tail    uint64     // committed entries past the checkpoint still in the journal
}

// Checkpoint takes a fuzzy checkpoint of the backed store: fence the
// backing at a whole commit epoch, flush the buffer pool and commit a page
// generation stamped with that epoch's exact journal position, write a
// checkpoint marker to the journal, and — when no committed entries have
// accumulated past the checkpoint — rotate the journal down to just the
// marker. Group commit keeps running throughout; only write-throughs queue
// behind the store fence.
func (c *Controller) Checkpoint(st *kdb.Store) (CheckpointInfo, error) {
	var (
		info  CheckpointInfo
		epoch uint64
		err   error
	)
	c.txns.WithStampBarrier(func() {
		epoch, err = st.CheckpointBegin()
	})
	if err != nil {
		return info, err
	}
	c.mu.Lock()
	pair, ok := c.jPairs[epoch]
	if !ok && epoch <= 1 && len(c.jPairs) == 0 {
		// A store that has never committed through this journal: the image
		// covers an empty prefix.
		pair, ok = ckptPair{entries: 0, maxKey: int64(c.nextKey)}, true
	}
	c.mu.Unlock()
	if !ok {
		st.CheckpointAbort()
		return info, fmt.Errorf("%w: epoch %d", ErrCheckpointUnaligned, epoch)
	}
	meta := pager.Meta{Epoch: epoch, Entries: pair.entries, MaxKey: pair.maxKey}
	if err := st.CheckpointCommit(meta); err != nil {
		return info, err
	}
	info.Meta = meta
	c.mu.Lock()
	defer c.mu.Unlock()
	return info, c.markCheckpointLocked(&info, epoch)
}

// markCheckpointLocked notes a durable checkpoint (info.Meta) in the journal
// and retires the epoch pairings below minEpoch. With no committed tail past
// the checkpoint the whole journal is covered by the images and shrinks to
// just the marker; otherwise the marker rides the existing stream and replay
// uses the image's Entries to skip the covered prefix. Caller holds c.mu.
func (c *Controller) markCheckpointLocked(info *CheckpointInfo, minEpoch uint64) error {
	info.Tail = c.jEntries - info.Meta.Entries
	if c.jw != nil {
		marker := wire.JournalEntry{Marker: markerCheckpoint, Key: info.Meta.MaxKey,
			CkptEpoch: info.Meta.Epoch, CkptEntries: info.Meta.Entries}
		if c.jf != nil && info.Tail == 0 {
			if err := c.rotateJournalLocked(&marker); err != nil {
				return err
			}
			info.Rotated = true
		} else {
			b, _ := wire.AppendJournalEntry(c.jbuf[:0], &marker) // a marker is far below the frame bound
			if err := c.writeJournalLocked(b); err != nil {
				return err
			}
		}
	}
	c.lastCkpt = info.Meta.Epoch
	for e := range c.jPairs {
		if e < minEpoch {
			delete(c.jPairs, e)
		}
	}
	return nil
}

// SeedRecovery primes the controller's checkpoint accounting after mounting
// a page image and replaying the journal tail: the commit clock continues
// past the image's epoch, the key allocator past its high water, and the
// journal position counters resume from the recovered total so the next
// checkpoint pairs exactly. entries is the position RecoverJournalFrom
// returned (or meta.Entries when there was no journal to replay).
func (c *Controller) SeedRecovery(meta pager.Meta, entries uint64) {
	c.txns.SeedClock(meta.Epoch)
	c.SeedKeys(meta.MaxKey)
	c.mu.Lock()
	defer c.mu.Unlock()
	if entries < meta.Entries {
		entries = meta.Entries
	}
	c.jEntries = entries
	c.jNoted = entries
	if int64(c.nextKey) > c.jMaxKey {
		c.jMaxKey = int64(c.nextKey)
	}
	if c.jPairs == nil {
		c.jPairs = make(map[uint64]ckptPair)
	}
	// The backing's applied epoch after recovery is the image's epoch — or 1,
	// since replayed tail entries auto-stamp at the store's floor epoch.
	// Either way the restored state now covers every recovered entry.
	pair := ckptPair{entries: entries, maxKey: c.jMaxKey}
	c.jPairs[meta.Epoch] = pair
	c.jPairs[max(meta.Epoch, 1)] = pair
	c.lastCkpt = meta.Epoch
}

// StartCheckpointer checkpoints st every interval until the returned stop
// function is called. Checkpoint errors are remembered and returned by stop;
// the loop keeps running after one (a transient unaligned epoch resolves at
// the next tick).
func (c *Controller) StartCheckpointer(st *kdb.Store, interval time.Duration) (stop func() error) {
	c.mu.Lock()
	c.ckptStop = make(chan struct{})
	c.ckptDone = make(chan struct{})
	stopCh, doneCh := c.ckptStop, c.ckptDone
	c.mu.Unlock()
	var firstErr error
	go func() {
		defer close(doneCh)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if _, err := c.Checkpoint(st); err != nil && firstErr == nil {
					firstErr = err
				}
			case <-stopCh:
				return
			}
		}
	}()
	return func() error {
		close(stopCh)
		<-doneCh
		return firstErr
	}
}

// JournalFile is an on-disk journal the controller can rotate at a
// checkpoint: rotation writes a fresh journal — header and checkpoint marker
// — to a temporary file, syncs it and renames it into place, so a crash at
// any point leaves either the prior journal or the new one. Opening removes
// any stale temporary a crashed rotation left behind (its rename never
// happened, so the original is intact).
type JournalFile struct {
	path string
	f    *os.File
}

// OpenJournalFile prepares the journal at path for attachment. It does not
// read or modify an existing journal at path — recover from it first;
// AttachJournalFile then replaces it with a fresh stream.
func OpenJournalFile(path string) (*JournalFile, error) {
	os.Remove(path + ".tmp")
	return &JournalFile{path: path}, nil
}

// Path returns the journal's file path.
func (j *JournalFile) Path() string { return j.path }

// Close closes the underlying file.
func (j *JournalFile) Close() error {
	if j.f == nil {
		return nil
	}
	return j.f.Close()
}

// AttachJournalFile is AttachJournal over a rotatable journal file. It
// begins a fresh journal stream headed by a checkpoint marker carrying the
// controller's current covered position (zero on a fresh controller; the
// recovered total after SeedRecovery), replacing any previous journal at
// the path. The caller must ensure the store's durable image covers that
// position first — recover, checkpoint, then attach; an attach that
// truncates an uncovered journal is caught at the next recovery by the
// marker/image mismatch check rather than passing silently.
func (c *Controller) AttachJournalFile(j *JournalFile) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.jf = j
	marker := wire.JournalEntry{Marker: markerCheckpoint, Key: c.jMaxKey,
		CkptEpoch: c.lastCkpt, CkptEntries: c.jEntries}
	if err := c.rotateJournalLocked(&marker); err != nil {
		c.jf = nil
		return err
	}
	return nil
}

// rotateJournalLocked replaces the journal with a fresh one headed by the
// checkpoint marker (see JournalFile); later entries append to the new file.
// Caller holds c.mu and has verified the image covers every committed entry
// of the journal being replaced.
func (c *Controller) rotateJournalLocked(marker *wire.JournalEntry) error {
	b, err := wire.AppendJournalEntry(wire.AppendJournalHeader(c.jbuf[:0]), marker)
	if err != nil {
		return fmt.Errorf("kc: journal rotation: %w", err)
	}
	tmp := c.jf.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("kc: journal rotation: %w", err)
	}
	if _, err = f.Write(b); err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = os.Rename(tmp, c.jf.path)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("kc: journal rotation: %w", err)
	}
	old := c.jf.f
	c.jf.f = f
	c.jw = bufio.NewWriter(f)
	if old != nil {
		old.Close()
	}
	return nil
}
