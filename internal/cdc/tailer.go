package cdc

import (
	"errors"
	"sync/atomic"
	"time"

	"mlds/internal/kc"
	"mlds/internal/txn"
)

// ErrClosed reports a tailer whose subscription or owner shut down.
var ErrClosed = errors.New("cdc: tailer closed")

// DefaultPoll is the tailer's catch-up poll period: how often an idle tailer
// compares its position against the journal's, so records dropped from the
// subscription buffer are recovered even when no later commit arrives to
// expose the gap.
const DefaultPoll = 25 * time.Millisecond

// Entry is one committed journal entry delivered by a tailer, in commit
// order with its exact journal position. Rec carries the mutating request as
// it was executed plus the database keys it touched.
type Entry struct {
	Pos   uint64
	Epoch uint64 // commit epoch; 0 when recovered from the journal file
	Txn   uint64
	Rec   txn.JournalRec
}

// TailerStats is a point-in-time snapshot of a tailer's delivery accounting.
type TailerStats struct {
	Pos       uint64 // last delivered journal position
	Epoch     uint64 // last delivered commit epoch (live records only)
	Delivered uint64 // entries delivered
	Dropped   uint64 // commit records the subscription buffer dropped
	Resyncs   uint64 // journal re-reads that recovered dropped ranges
}

// Tailer is a lossless cursor over one controller's committed-change stream.
// The live path is a commit-stream subscription; when the subscription's
// buffer overflows (publication never blocks group commit), the tailer
// detects the positional gap and re-reads exactly the missed range from the
// journal file. Next never returns a position twice and never skips one —
// unless the journal was compacted past the cursor, which Next reports as
// kc.ErrCompacted so the owner can rebuild from a fresh snapshot.
//
// A Tailer is single-consumer: Next must not be called concurrently.
type Tailer struct {
	ctrl *kc.Controller
	sub  *txn.CommitSub
	tick *time.Ticker

	after     uint64 // last delivered position
	epoch     atomic.Uint64
	pos       atomic.Uint64
	delivered atomic.Uint64
	resyncs   atomic.Uint64
}

// NewTailer subscribes to the controller's commit stream with the given
// buffer (minimum 1) and poll period (0 = DefaultPoll). Subscribe before
// taking the snapshot that anchors the cursor, then call Reset with the
// snapshot's position: every later committed entry arrives on the
// subscription or is recovered from the journal.
func NewTailer(ctrl *kc.Controller, buf int, poll time.Duration) *Tailer {
	if poll <= 0 {
		poll = DefaultPoll
	}
	return &Tailer{
		ctrl: ctrl,
		sub:  ctrl.SubscribeCommits(buf),
		tick: time.NewTicker(poll),
	}
}

// Reset anchors the cursor: entries at positions <= pos are considered
// delivered (they are visible in the snapshot the caller loaded).
func (t *Tailer) Reset(pos uint64) {
	t.after = pos
	t.pos.Store(pos)
}

// Close cancels the subscription. A concurrent Next returns ErrClosed.
func (t *Tailer) Close() {
	t.sub.Close()
	t.tick.Stop()
}

// Stats returns the tailer's delivery accounting.
func (t *Tailer) Stats() TailerStats {
	return TailerStats{
		Pos:       t.pos.Load(),
		Epoch:     t.epoch.Load(),
		Delivered: t.delivered.Load(),
		Dropped:   t.sub.Dropped(),
		Resyncs:   t.resyncs.Load(),
	}
}

// Next blocks until committed entries past the cursor are available and
// returns them in commit order, advancing the cursor. It returns ErrClosed
// when the subscription or the quit channel closes, and kc.ErrCompacted (or
// another journal-read error) when dropped entries cannot be recovered —
// the cursor is then unusable until Reset.
func (t *Tailer) Next(quit <-chan struct{}) ([]Entry, error) {
	for {
		select {
		case rec, ok := <-t.sub.C:
			if !ok {
				return nil, ErrClosed
			}
			batch, err := t.fromRecord(rec)
			if err != nil {
				return nil, err
			}
			if len(batch) == 0 {
				continue
			}
			return batch, nil
		case <-t.tick.C:
			// Idle catch-up: if the journal moved past the cursor and no
			// record announced it (the announcement was dropped and nothing
			// committed since), recover from the journal directly. Pending
			// live records are processed first — they cover the gap without a
			// re-read, and on journal-less controllers a re-read isn't
			// possible at all.
			if len(t.sub.C) > 0 || t.ctrl.JournalPos() <= t.after {
				continue
			}
			batch, err := t.resync()
			if err != nil {
				return nil, err
			}
			if len(batch) == 0 {
				continue
			}
			return batch, nil
		case <-quit:
			return nil, ErrClosed
		}
	}
}

// fromRecord converts one live commit record into deliverable entries,
// resynchronizing from the journal first if records before it were dropped.
func (t *Tailer) fromRecord(rec txn.CommitRecord) ([]Entry, error) {
	if rec.Epoch != 0 {
		t.epoch.Store(rec.Epoch)
	}
	if rec.Pos == 0 {
		// No position accounting (a sink that does not count positions):
		// nothing to anchor lossless delivery to; deliver nothing rather
		// than guess. Controllers count positions even without a journal
		// file, so this only guards foreign sinks.
		return nil, nil
	}
	start := rec.Pos - uint64(len(rec.Entries))
	if start > t.after {
		// Records between the cursor and this one were dropped from the
		// subscription buffer. They were durable in the journal before they
		// were published, so the journal has them — and it has this record's
		// entries too, so the resync read covers everything through rec.Pos.
		return t.resync()
	}
	var out []Entry
	for i, e := range rec.Entries {
		pos := start + uint64(i) + 1
		if pos <= t.after {
			continue // already recovered by an earlier resync
		}
		out = append(out, Entry{Pos: pos, Epoch: rec.Epoch, Txn: rec.ID, Rec: e})
	}
	if rec.Pos > t.after {
		t.advance(rec.Pos, uint64(len(out)))
	}
	return out, nil
}

// resync re-reads every committed entry past the cursor from the journal
// file — in position order — and advances the cursor over them.
func (t *Tailer) resync() ([]Entry, error) {
	entries, err := t.ctrl.ReadCommitted(t.after)
	if err != nil {
		return nil, err
	}
	t.resyncs.Add(1)
	if len(entries) == 0 {
		return nil, nil
	}
	out := make([]Entry, len(entries))
	for i, e := range entries {
		out[i] = Entry{Pos: e.Pos, Txn: e.Txn, Rec: e.Rec}
	}
	t.advance(entries[len(entries)-1].Pos, uint64(len(out)))
	return out, nil
}

func (t *Tailer) advance(pos, delivered uint64) {
	t.after = pos
	t.pos.Store(pos)
	t.delivered.Add(delivered)
}
