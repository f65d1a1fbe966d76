package kc

import (
	"bufio"
	"errors"
	"fmt"
	"os"

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
//   - The sink's position accounting: the group-commit leader calls
//     NoteEpoch after each batch is durable and stamped, still under the
//     barrier, so the position read inside the barrier is exactly the
//     journal prefix the fenced images hold.
//
// Between CheckpointBegin and CheckpointRelease the store defers
// write-throughs behind its fence while group commit, stamping and reads
// all proceed — the checkpoint's pool flush and page-file commit never
// stall the commit path. One protocol serves every case: a single store is
// a fleet of one (CheckpointFleet, fleet.go).

// ErrCheckpointUnaligned reports a checkpoint the journal position cannot
// cover: a store's current image already holds more journal entries than
// the controller has counted — typically an image mounted on a controller
// that was not seeded after recovery (SeedRecovery or RecoverFleet).
// Stamping a new image below its own position would strand the journal
// entries between the two.
var ErrCheckpointUnaligned = errors.New("kc: checkpoint position is behind the store's image")

// CheckpointInfo describes a completed checkpoint.
type CheckpointInfo struct {
	Meta    pager.Meta // metadata committed into the page file
	Rotated bool       // the journal was truncated to a fresh file
	Tail    uint64     // committed entries past the checkpoint still in the journal
}

// markCheckpointLocked notes a durable checkpoint (info.Meta) in the journal.
// With no committed tail past
// the checkpoint the whole journal is covered by the images and shrinks to
// just the marker; otherwise the marker rides the existing stream and replay
// uses the image's Entries to skip the covered prefix. Caller holds c.mu.
func (c *Controller) markCheckpointLocked(info *CheckpointInfo) error {
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
	if k := c.nextKey.Load(); k > c.jMaxKey {
		c.jMaxKey = k
	}
	c.lastCkpt = meta.Epoch
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
