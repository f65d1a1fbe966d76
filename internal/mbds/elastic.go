package mbds

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/kdb"
)

// Elastic membership and live partition migration.
//
// The backend fleet is not frozen at Config time. AddBackend joins a fresh
// backend, DrainBackend moves everything off a backend before retiring it,
// and RemoveBackend handles unrecoverable loss from the surviving copies.
// Each is one migration from the current view to the next: the placement
// rule names every key's holders in both, and exactly the keys whose holder
// set differs move. All of it runs under live traffic.
//
// A migration copies data in epoch-bounded rounds against the MVCC version
// chains (kdb.ExportSince / ImportPartition): round 1 copies everything,
// each later round copies only what changed while the previous round ran,
// and the final round runs under the write fence — a brief exclusive pause
// of the Exec entry points — so the view flip observes no in-flight writes.
// Mutations the chains cannot carry (the undo path's NoVersion ForceID
// operations) and MVCC control ops are captured in a catch-up log while the
// migration runs and replayed on the destinations before the final round.
// Reads stay exact throughout: records transiently present on both source
// and destination answer under one database key, and broadcasts deduplicate
// by key whenever a migration is in flight.

// Migration tuning.
const (
	migPage      = 256 // records per export page
	migMaxRounds = 6   // unfenced copy rounds before forcing the fenced finish
	migSettle    = 32  // residue small enough to finish under the fence
)

// elasticCounters mirrors the migration metrics for MigrationStats.
type elasticCounters struct {
	keys       atomic.Uint64
	bytes      atomic.Uint64
	catchup    atomic.Uint64
	promotions atomic.Uint64
}

// MigrationStats is a point-in-time snapshot of the system's elastic
// membership counters.
type MigrationStats struct {
	Keys           uint64 // records copied by migrations
	Bytes          uint64 // approximate bytes copied
	CatchupEntries uint64 // catch-up log entries captured
	Promotions     uint64 // backends removed after loss (failovers)
	Epoch          uint64 // current membership epoch
}

// MigrationStats returns the elastic membership counters.
func (s *System) MigrationStats() MigrationStats {
	return MigrationStats{
		Keys:           s.elastic.keys.Load(),
		Bytes:          s.elastic.bytes.Load(),
		CatchupEntries: s.elastic.catchup.Load(),
		Promotions:     s.elastic.promotions.Load(),
		Epoch:          s.MembershipEpoch(),
	}
}

// installView publishes a new backend view and advances the membership
// epoch.
func (s *System) installView(v []*backend) {
	s.vmu.Lock()
	s.view = v
	s.epoch++
	e := s.epoch
	s.vmu.Unlock()
	s.metrics.membershipEpoch.Set(int64(e))
}

// removeFrom returns a copy of the view without the backend at pos.
func removeFrom(view []*backend, pos int) []*backend {
	out := make([]*backend, 0, len(view)-1)
	out = append(out, view[:pos]...)
	return append(out, view[pos+1:]...)
}

// AddBackend joins a fresh local backend and returns its position: one
// migration from the current view to the view with the backend appended,
// which copies onto it the keys the grown view assigns it. Reads and writes
// continue throughout; the backend takes inserts once the view flips.
func (s *System) AddBackend() (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	store, err := s.newLocalStore(len(s.viewSnap()))
	if err != nil {
		return 0, fmt.Errorf("mbds: opening joined backend store: %w", err)
	}
	return s.addBackend(store, store)
}

// AddBackendExecutor joins a backend served by the given executor (typically
// an mbdsnet.RemoteBackend) the same way and returns its position. The
// controller assigns every database key, so the executor's own allocator is
// never consulted.
func (s *System) AddBackendExecutor(exec Executor) (int, error) {
	if s.closed.Load() {
		return 0, ErrClosed
	}
	return s.addBackend(exec, nil)
}

func (s *System) addBackend(exec Executor, store *kdb.Store) (int, error) {
	if err := s.beginOp(); err != nil {
		return 0, err
	}
	defer s.opWG.Done()
	s.memMu.Lock()
	defer s.memMu.Unlock()
	b := s.newBackend(s.allocBID(), exec, store)
	s.initBackendMetrics(b)
	view := s.viewSnap()
	nv := make([]*backend, 0, len(view)+1)
	nv = append(append(nv, view...), b)
	if err := s.migrate(view, nv, view); err != nil {
		return 0, fmt.Errorf("mbds: add backend %d: %w", b.id, err)
	}
	return len(nv) - 1, nil
}

func (s *System) allocBID() int {
	s.vmu.Lock()
	defer s.vmu.Unlock()
	id := s.nextBID
	s.nextBID++
	return id
}

// DrainBackend gracefully removes the backend at pos: one migration from the
// current view to the view without it, with every backend — the drained one
// included — exporting, so each of its copies, replica copies alike, lands
// on the holders the shrunken view names before it is retired. Concurrent
// reads and writes see no failures.
func (s *System) DrainBackend(pos int) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.opWG.Done()
	s.memMu.Lock()
	defer s.memMu.Unlock()
	view := s.viewSnap()
	if pos < 0 || pos >= len(view) {
		return fmt.Errorf("mbds: drain: no backend at position %d", pos)
	}
	if len(view) == 1 {
		return errors.New("mbds: cannot drain the last backend")
	}
	if err := s.migrate(view, removeFrom(view, pos), view); err != nil {
		return fmt.Errorf("mbds: drain backend %d: %w", view[pos].id, err)
	}
	return nil
}

// RemoveBackend removes the backend at pos without reading anything off it —
// the path for unrecoverable loss. It is the drain's migration sourced from
// the survivors only: with Replicas > 0 a surviving copy of every key the
// dead backend held re-homes it, so no committed write is lost. With
// Replicas == 0 the dead backend's records are gone — that is what
// replication is for.
func (s *System) RemoveBackend(pos int) error {
	view := s.viewSnap()
	if pos < 0 || pos >= len(view) {
		return fmt.Errorf("mbds: remove: no backend at position %d", pos)
	}
	return s.removeBackend(view[pos])
}

// removeBackend removes the backend by identity, so a membership change that
// shifts positions while the removal waits its turn cannot redirect it.
func (s *System) removeBackend(dead *backend) error {
	if err := s.beginOp(); err != nil {
		return err
	}
	defer s.opWG.Done()
	s.memMu.Lock()
	defer s.memMu.Unlock()
	view := s.viewSnap()
	pos := slices.Index(view, dead)
	if pos < 0 {
		return nil // already gone
	}
	if len(view) == 1 {
		return errors.New("mbds: cannot remove the last backend")
	}
	survivors := removeFrom(view, pos)
	if err := s.migrate(view, survivors, survivors); err != nil {
		return fmt.Errorf("mbds: remove backend %d: %w", dead.id, err)
	}
	s.metrics.promotions.Inc()
	s.elastic.promotions.Add(1)
	return nil
}

// failoverMonitor watches backend health and removes any backend whose
// circuit breaker has been open for at least Config.FailoverAfter.
func (s *System) failoverMonitor() {
	defer s.monWG.Done()
	period := s.cfg.FailoverCheck
	if period <= 0 {
		period = s.cfg.FailoverAfter / 4
	}
	if period <= 0 {
		period = 50 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.stopMon:
			return
		case <-t.C:
			s.checkFailover()
		}
	}
}

func (s *System) checkFailover() {
	view := s.viewSnap()
	if len(view) <= 1 {
		return
	}
	for _, b := range view {
		h := b.snapshotHealth()
		if h.Up || h.DownSince.IsZero() {
			continue
		}
		if time.Since(h.DownSince) < s.cfg.FailoverAfter {
			continue
		}
		_ = s.removeBackend(b)
		return // the view changed; rescan on the next tick
	}
}

// idSet is a set of database keys per backend.
type idSet map[*backend]map[abdm.RecordID]bool

func (m idSet) note(b *backend, id abdm.RecordID) {
	if m[b] == nil {
		m[b] = make(map[abdm.RecordID]bool)
	}
	m[b][id] = true
}

// migration is one live migration between two views.
type migration struct {
	from, to []*backend
	srcs     []*backend // the backends that export: from's live members
	since    []uint64   // per source: the inclusive epoch bound of its next export
	imported idSet      // copies installed on holders a key gains
	strays   idSet      // copies to drop from sources that stop holding a key
}

// gained lists the holders key id has under the new view and not under the
// old one.
func (s *System) gained(m *migration, id abdm.RecordID) []*backend {
	was := s.holdersOf(m.from, id)
	var out []*backend
	for _, h := range s.holdersOf(m.to, id) {
		if !slices.Contains(was, h) {
			out = append(out, h)
		}
	}
	return out
}

// migrate moves the fleet from view from to view to: every source exports
// its partition, and each copy of a key whose holder set differs between
// the views is imported by the holders the key gains and dropped from a
// source that stops holding it. Unfenced epoch-bounded copy rounds run until
// the residue settles; then, under the exclusive write fence, the catch-up
// log replays, one final round runs and to is installed. On failure every
// imported copy is dropped, so from stays in force exactly as it was.
func (s *System) migrate(from, to, srcs []*backend) (err error) {
	m := &migration{from: from, to: to, srcs: srcs, since: make([]uint64, len(srcs)),
		imported: make(idSet), strays: make(idSet)}
	s.migMu.Lock()
	s.migLog = nil
	s.migMu.Unlock()
	s.migOn.Store(true)
	// Barrier: writes that predate the flag may be mid-flight; wait them out
	// so everything after this line is either exported or logged.
	s.fence.Lock()
	//lint:ignore SA2001 empty critical section is the barrier
	s.fence.Unlock()

	defer func() {
		if err != nil {
			dropAll(m.imported)
		}
		s.migOn.Store(false)
		s.migMu.Lock()
		s.migLog = nil
		s.migMu.Unlock()
	}()

	for round := 0; round < migMaxRounds; round++ {
		n, cerr := s.copyRound(m)
		if cerr != nil {
			return cerr
		}
		if n <= migSettle {
			break
		}
	}

	s.fence.Lock()
	defer s.fence.Unlock()
	if rerr := s.replayCatchup(m); rerr != nil {
		return rerr
	}
	if _, cerr := s.copyRound(m); cerr != nil {
		return cerr
	}
	s.installView(to)
	dropAll(m.strays)
	return nil
}

// copyRound pages every source's export once through, from the source's
// bound, importing each moving copy to the holders its key gains and noting
// the sources that stop holding it. It returns how many copies moved and
// advances each source's bound to the epoch it observed at the start.
func (s *System) copyRound(m *migration) (int, error) {
	copied := 0
	for i, src := range m.srcs {
		var after abdm.RecordID
		var first uint64
		for {
			recs, next, epoch, err := src.exec.ExportSince(m.since[i], after, migPage)
			if err != nil {
				return copied, err
			}
			if first == 0 {
				first = epoch
			}
			byDest := make(map[*backend][]kdb.MigRecord)
			for _, r := range recs {
				// The invariant puts every copy on a holder of its key; a copy
				// the source does not hold by the rule is no copy to move.
				if !slices.Contains(s.holdersOf(m.from, r.ID), src) {
					continue
				}
				gained := s.gained(m, r.ID)
				kept := slices.Contains(s.holdersOf(m.to, r.ID), src)
				if len(gained) == 0 && kept {
					continue
				}
				for _, h := range gained {
					byDest[h] = append(byDest[h], r)
				}
				if !kept {
					m.strays.note(src, r.ID)
				}
				copied++
				s.metrics.migKeys.Inc()
				s.elastic.keys.Add(1)
				nb := uint64(r.ApproxBytes())
				s.metrics.migBytes.Add(nb)
				s.elastic.bytes.Add(nb)
			}
			for b, rs := range byDest {
				if _, err := b.exec.ImportPartition(rs); err != nil {
					return copied, err
				}
				for _, r := range rs {
					m.imported.note(b, r.ID)
				}
			}
			if next == 0 {
				break
			}
			after = next
		}
		m.since[i] = first
	}
	return copied, nil
}

// replayCatchup re-executes the catch-up log on the migration's
// destinations: a placement-pinned mutation goes to the holders its key
// gains, MVCC commit/abort stamps to every backend that imported chains (an
// import may have delivered pending versions after the broadcast ran there,
// or the backend is not in the view yet). Like the other migration verbs it
// calls the partitions directly, past the bus policy and injected faults.
// All replayed operations are idempotent. Caller holds the write fence.
func (s *System) replayCatchup(m *migration) error {
	s.migMu.Lock()
	log := s.migLog
	s.migLog = nil
	s.migMu.Unlock()
	out := make([]*kdb.Result, 1)
	for i, req := range log {
		one := log[i : i+1]
		switch req.Kind {
		case abdl.MvccCommit, abdl.MvccAbort:
			for b := range m.imported {
				if err := b.exec.ExecBatch(one, out); err != nil {
					return err
				}
			}
		default:
			for _, h := range s.gained(m, req.ForceID) {
				if err := h.exec.ExecBatch(one, out); err != nil {
					return err
				}
				m.imported.note(h, req.ForceID)
			}
		}
	}
	return nil
}

// dropAll removes the noted copies: after the flip, the strays on backends
// that left their keys' holder sets (the authoritative copies, full version
// chains included, already live on the new holders, and broadcast dedup is
// still forced on); after a failure, every imported copy, so no duplicate
// survives once dedup switches back off.
func dropAll(copies idSet) {
	for b, ids := range copies {
		drop := make([]abdm.RecordID, 0, len(ids))
		for id := range ids {
			drop = append(drop, id)
		}
		_, _ = b.exec.DropRecords(drop)
	}
}
