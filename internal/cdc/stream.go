package cdc

import (
	"context"
	"fmt"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kc"
	"mlds/internal/txn"
)

// stream is the shared engine under watchers and views: a snapshot-consistent
// load followed by a lossless tail, with a mirror of the watched file so
// UPDATE deltas resolve to full post-images and predicate-membership
// transitions become inserts and deletes. A stream is single-goroutine: the
// owner calls load once (and again after a compaction resync), then next in
// a loop.
type stream struct {
	ctrl   *kc.Controller
	def    Def
	tailer *Tailer
	mirror map[uint64]*abdm.Record // every live record of the watched file
}

func newStream(ctrl *kc.Controller, def Def, buf int, poll time.Duration) *stream {
	// Subscribe before snapshotting: every commit past the snapshot's
	// position is then either on the subscription or recoverable from the
	// journal — nothing can fall between the snapshot and the tail.
	return &stream{
		ctrl:   ctrl,
		def:    def,
		tailer: NewTailer(ctrl, buf, poll),
		mirror: make(map[uint64]*abdm.Record),
	}
}

// load pins a snapshot, reads the watched file through it, anchors the
// tailer at the snapshot's journal position, and emits the initial result —
// OpLoad per matching row, closed by OpReady at the snapshot epoch. emit
// returning false aborts (the owner is shutting down).
func (s *stream) load(ctx context.Context, emit func(Change) bool) error {
	tx, pos := s.ctrl.WatchSnapshot()
	defer s.ctrl.Txns().Commit(tx)
	epoch := tx.SnapshotEpoch()

	req := abdl.NewRetrieve(abdm.Query{{abdm.Predicate{
		Attr: abdm.FileAttr, Op: abdm.OpEq, Val: abdm.String(s.def.File),
	}}}, abdl.AllAttrs)
	res, err := s.ctrl.ExecCtx(txn.NewContext(ctx, tx), req)
	if err != nil {
		return fmt.Errorf("cdc: initial load of %s: %w", s.def.File, err)
	}
	s.mirror = make(map[uint64]*abdm.Record, len(res.Records))
	for _, sr := range res.Records {
		id := uint64(sr.ID)
		s.mirror[id] = sr.Rec
		if !s.def.matches(sr.Rec) {
			continue
		}
		if !emit(Change{Op: OpLoad, File: s.def.File, ID: id, Rec: s.def.project(sr.Rec), Pos: pos, Epoch: epoch}) {
			return ErrClosed
		}
	}
	s.tailer.Reset(pos)
	if !emit(Change{Op: OpReady, File: s.def.File, Pos: pos, Epoch: epoch}) {
		return ErrClosed
	}
	return nil
}

// next waits for the tail to advance and returns the resulting row changes
// (possibly none — entries for other files still advance the position).
// The second result is the new journal position. kc.ErrCompacted means the
// owner must clear state, emit OpResync and call load again.
func (s *stream) next(quit <-chan struct{}) ([]Change, uint64, error) {
	entries, err := s.tailer.Next(quit)
	if err != nil {
		return nil, s.tailer.Stats().Pos, err
	}
	var out []Change
	for _, e := range entries {
		out = s.apply(e, out)
	}
	return out, s.tailer.Stats().Pos, nil
}

// apply folds one committed journal entry into the mirror and appends the
// row changes it implies for the watched query.
func (s *stream) apply(e Entry, out []Change) []Change {
	req := e.Rec.Req
	switch req.Kind {
	case abdl.Insert:
		if req.Record == nil || req.Record.File() != s.def.File {
			return out
		}
		id := uint64(req.ForceID)
		if id == 0 && len(e.Rec.Affected) > 0 {
			id = e.Rec.Affected[0]
		}
		if id == 0 {
			return out
		}
		rec := req.Record.Clone()
		s.mirror[id] = rec
		if s.def.matches(rec) {
			out = append(out, s.change(OpInsert, id, rec, e))
		}
	case abdl.Update:
		if !s.queryTouches(req.Query) {
			return out
		}
		for _, id := range e.Rec.Affected {
			old, ok := s.mirror[id]
			if !ok {
				continue // a key of another file sharing the qualification
			}
			rec := old.Clone()
			for _, m := range req.Mods {
				rec.Set(m.Attr, m.Val)
			}
			s.mirror[id] = rec
			was, is := s.def.matches(old), s.def.matches(rec)
			switch {
			case !was && is:
				out = append(out, s.change(OpInsert, id, rec, e))
			case was && !is:
				out = append(out, s.change(OpDelete, id, nil, e))
			case was && is:
				out = append(out, s.change(OpUpdate, id, rec, e))
			}
		}
	case abdl.Delete:
		if !s.queryTouches(req.Query) && req.ForceID == 0 {
			return out
		}
		for _, id := range e.Rec.Affected {
			old, ok := s.mirror[id]
			if !ok {
				continue
			}
			delete(s.mirror, id)
			if s.def.matches(old) {
				out = append(out, s.change(OpDelete, id, nil, e))
			}
		}
	}
	return out
}

func (s *stream) change(op Op, id uint64, rec *abdm.Record, e Entry) Change {
	c := Change{Op: op, File: s.def.File, ID: id, Pos: e.Pos, Epoch: e.Epoch, Txn: e.Txn}
	if rec != nil {
		c.Rec = s.def.project(rec)
	}
	return c
}

// queryTouches reports whether a mutation's qualification can reach the
// watched file. An unconfined query (no leading FILE predicate in some
// conjunction) conservatively touches everything.
func (s *stream) queryTouches(q abdm.Query) bool {
	files, ok := q.Files()
	if !ok {
		return true
	}
	for _, f := range files {
		if f == s.def.File {
			return true
		}
	}
	return false
}

// close releases the tail subscription.
func (s *stream) close() { s.tailer.Close() }

// stats exposes the tailer's accounting.
func (s *stream) stats() TailerStats { return s.tailer.Stats() }
