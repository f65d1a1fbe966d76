// Package cdc is the change-data-capture subsystem of the multi-lingual
// database system: it turns journal v2 — the totally-ordered, durable
// committed-transaction stream behind group commit — into consumable change
// feeds and incrementally-maintained materialized views.
//
// Three layers stack on the journal:
//
//   - Tailer: a lossless cursor over the commit stream. It rides
//     txn.Manager.SubscribeCommits for the live path, and when the
//     subscription's buffer drops records (publication never blocks commits)
//     it detects the gap from the per-record journal positions and re-reads
//     exactly the missed range from the journal file (kc.ReadCommitted).
//     Delivery is therefore gap-free and duplicate-free as long as the
//     journal retains the range; a checkpoint rotation that truncates past
//     the cursor surfaces as ErrCompacted, the signal to rebuild from a
//     fresh snapshot.
//
//   - Watcher: WATCH <query> — a snapshot-consistent initial load (OpLoad
//     rows then OpReady, pinned at one MVCC epoch via kc.WatchSnapshot)
//     followed by exactly the committed changes past that epoch, expressed
//     as row-level inserts, updates and deletes against the query's
//     predicate. Membership transitions are computed against a mirror of the
//     watched file, so a record UPDATEd into (or out of) the predicate
//     arrives as an insert (or delete).
//
//   - View: CREATE VIEW v AS <query> — a Watcher whose changes are applied
//     against the view's own kdb store, keyed by the base records' database
//     keys. View contents equal a full recomputation of the query at every
//     quiescent point, at incremental cost.
//
// All of it is cross-model by construction: the query names a kernel file,
// and every data model of the system (relational, functional, network,
// hierarchical, raw ABDL) stores its records in kernel files — so a
// relational-style view can be maintained over a functional database's
// changes, the Multi-SQL direction the MLDS thesis points at.
package cdc

import (
	"fmt"

	"mlds/internal/abdm"
)

// Op classifies one change event.
type Op byte

// Change operations. Load rows arrive first, closed by one Ready carrying
// the snapshot epoch; Insert/Update/Delete follow in commit order. Resync
// announces that the journal was compacted past the watcher's position and a
// fresh snapshot-consistent load (Load... Ready) follows.
const (
	OpLoad Op = iota
	OpReady
	OpInsert
	OpUpdate
	OpDelete
	OpResync
)

var opNames = [...]string{"load", "ready", "insert", "update", "delete", "resync"}

// String names the operation.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Change is one event on a watch: a row entering, changing within, or
// leaving the watched query's result, or a lifecycle marker (Ready, Resync).
type Change struct {
	Op   Op
	File string // watched kernel file
	ID   uint64 // database key of the row (Load/Insert/Update/Delete)
	// Rec is the projected post-image for Load/Insert/Update; nil for
	// Delete and the lifecycle markers.
	Rec *abdm.Record
	// Pos is the journal position the change was produced at (for
	// Load/Ready: the snapshot's position). Positions are non-decreasing on
	// one watch, so consumers can checkpoint their progress.
	Pos uint64
	// Epoch is the commit epoch (Ready: the snapshot epoch; 0 on changes
	// replayed from the journal, which stores no epochs).
	Epoch uint64
	// Txn is the committing transaction's id (0 for Load/Ready/Resync).
	Txn uint64
}

// String renders the change for logs and rendered watch output.
func (c Change) String() string {
	switch c.Op {
	case OpReady:
		return fmt.Sprintf("ready epoch=%d", c.Epoch)
	case OpResync:
		return "resync"
	case OpDelete:
		return fmt.Sprintf("delete %s id=%d", c.File, c.ID)
	}
	return fmt.Sprintf("%s %s id=%d %s", c.Op, c.File, c.ID, renderRec(c.Rec))
}

func renderRec(r *abdm.Record) string {
	if r == nil {
		return "<nil>"
	}
	s := "("
	for i, attr := range r.Attrs() {
		if attr == abdm.FileAttr {
			continue
		}
		if i > 0 && len(s) > 1 {
			s += ", "
		}
		v, _ := r.Get(attr)
		s += fmt.Sprintf("%s=%s", attr, v)
	}
	return s + ")"
}
