package kdb

import (
	"sort"

	"mlds/internal/abdm"
)

// Live partition migration support.
//
// A draining (or rebalancing) backend's partition is copied to its new
// holders in epoch-bounded rounds: ExportSince pages out every record whose
// version chain was touched at or after a given commit epoch — live value,
// full chain, pending versions included — and ImportPartition installs those
// records on the destination, replacing its live state and chain for each
// key. The first round (since == 0) copies everything; subsequent rounds
// copy only what changed while the previous round ran, so the residue
// shrinks until the controller can finish under a brief write fence.
//
// The epoch bound is INCLUSIVE (epoch >= since): a mutation stamped at the
// epoch observed when a round started may have landed after that round's
// page passed its record, so the boundary epoch is always re-exported.
// Imports are idempotent replacements, so the overlap is harmless.

// MigVersion is one exported entry of a record's version chain. A nil Rec is
// a tombstone; Epoch 0 marks a version still pending under Txn.
type MigVersion struct {
	Epoch uint64
	Txn   uint64
	Rec   *abdm.Record
}

// MigRecord is one record's exportable state: its live value (nil when the
// record is currently deleted) plus its full version chain. The records an
// export hands out are the source store's own and the ones an import is given
// become the destination's: read-only on both sides, like the rows of a
// Result.
type MigRecord struct {
	File  string
	ID    abdm.RecordID
	Live  *abdm.Record
	Chain []MigVersion
}

// ApproxBytes estimates the record's wire footprint, for migration metrics.
func (m *MigRecord) ApproxBytes() int {
	size := func(r *abdm.Record) int {
		if r == nil {
			return 0
		}
		n := len(r.Text) + 16
		for _, kw := range r.Keywords {
			n += len(kw.Attr) + 16
		}
		return n
	}
	n := len(m.File) + 16 + size(m.Live)
	for _, v := range m.Chain {
		n += 16 + size(v.Rec)
	}
	return n
}

// ExportSince pages out the records whose version chains hold a version with
// epoch >= since or still pending, ordered by database key, starting after
// the given key, at most limit records (0 = unlimited). It returns the page,
// the key to resume after (0 when the page is the last), and the store's
// commit epoch observed at the start of the call — the inclusive lower bound
// for the next round.
func (s *Store) ExportSince(since uint64, after abdm.RecordID, limit int) ([]MigRecord, abdm.RecordID, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	epoch := s.mvcc.epoch
	if epoch == 0 {
		epoch = 1
	}
	fileFor := make(map[abdm.RecordID]string)
	for file, chains := range s.mvcc.chains {
		for id, chain := range chains {
			if id <= after || !chainTouched(chain, since) {
				continue
			}
			fileFor[id] = file
		}
	}
	if since == 0 {
		// Belt and braces: a live record can predate MVCC bookkeeping (a
		// store populated before chains existed); a full export includes it.
		for id, file := range s.fileOf {
			if id <= after {
				continue
			}
			if _, ok := fileFor[id]; !ok {
				fileFor[id] = file
			}
		}
	}
	ids := make([]abdm.RecordID, 0, len(fileFor))
	for id := range fileFor {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	next := abdm.RecordID(0)
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
		next = ids[len(ids)-1]
	}
	out := make([]MigRecord, 0, len(ids))
	for _, id := range ids {
		file := fileFor[id]
		mr := MigRecord{File: file, ID: id}
		if liveFile, ok := s.fileOf[id]; ok {
			live := s.files[liveFile][id]
			if live == nil {
				var err error
				if live, err = s.fetchLocked(id); err != nil {
					return nil, 0, 0, err
				}
			}
			mr.Live = live
			mr.File = liveFile
		}
		for _, v := range s.mvcc.chains[file][id] {
			mr.Chain = append(mr.Chain, MigVersion{Epoch: v.epoch, Txn: v.txn, Rec: v.rec})
		}
		out = append(out, mr)
	}
	return out, next, epoch, nil
}

// chainTouched reports whether any version of the chain is pending or was
// committed at or after since.
func chainTouched(chain []version, since uint64) bool {
	for _, v := range chain {
		if v.epoch == 0 || v.epoch >= since {
			return true
		}
	}
	return false
}

// chainRank orders two states of one record's chain by recency: the newest
// committed epoch, the number of versions at that epoch (one commit batch can
// stamp several writes of a record at a single epoch), then the pending
// count. Migration imports use it to avoid replacing a destination copy that
// concurrent writes have already carried past the exported state.
type chainRank struct {
	newest  uint64
	atTip   int
	pending int
}

func rankOf(newest func(i int) (epoch uint64), n int) chainRank {
	var r chainRank
	for i := 0; i < n; i++ {
		e := newest(i)
		if e == 0 {
			r.pending++
			continue
		}
		if e > r.newest {
			r.newest, r.atTip = e, 1
		} else if e == r.newest {
			r.atTip++
		}
	}
	return r
}

func (r chainRank) newerThan(o chainRank) bool {
	if r.newest != o.newest {
		return r.newest > o.newest
	}
	if r.atTip != o.atTip {
		return r.atTip > o.atTip
	}
	return r.pending > o.pending
}

// ImportPartition installs exported records: for each, the live state and the
// version chain replace the destination's copy, pending versions are
// registered so a later MVCC-COMMIT/ABORT broadcast finds them, and the
// store's epoch advances to the newest imported epoch. A record whose
// destination chain already ranks newer than the import (a concurrent write
// landed after the export) is left alone — the next, fenced, round carries
// its final state. Imports are idempotent. It returns how many records were
// applied.
func (s *Store) ImportPartition(recs []MigRecord) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.initChainsLocked()
	applied := 0
	for i := range recs {
		mr := &recs[i]
		have := s.mvcc.chains[mr.File][mr.ID]
		imp := rankOf(func(i int) uint64 { return mr.Chain[i].Epoch }, len(mr.Chain))
		cur := rankOf(func(i int) uint64 { return have[i].epoch }, len(have))
		if len(have) > 0 && cur.newerThan(imp) {
			continue
		}
		applied++
		// Live state: replace or remove.
		if mr.Live != nil {
			if err := s.insertForcedLocked(mr.ID, mr.Live); err != nil {
				return applied, err
			}
		} else if _, ok := s.fileOf[mr.ID]; ok {
			if err := s.removeByIDLocked(mr.ID); err != nil {
				return applied, err
			}
		} else {
			s.bumpGen(mr.File)
		}
		// Chain: replace, registering imported pending versions. Pending
		// residency moves with the chain: the replaced chain's pending
		// versions are gone, the imported ones take their place.
		for _, v := range have {
			if v.epoch == 0 {
				s.pendingDec(mr.ID)
			}
		}
		chain := make([]version, len(mr.Chain))
		for j, v := range mr.Chain {
			chain[j] = version{epoch: v.Epoch, txn: v.Txn, rec: v.Rec}
			if v.Epoch == 0 {
				s.pendingInc(mr.ID)
				if v.Txn != 0 {
					s.addPendingRefLocked(v.Txn, mr.File, mr.ID)
				}
			}
			if v.Epoch > s.mvcc.epoch {
				s.mvcc.epoch = v.Epoch
			}
		}
		s.mvcc.versions += len(chain) - len(have)
		s.setChainLocked(mr.File, mr.ID, chain)
		// The paged backing holds committed state only: write through the
		// newest committed version of the imported chain (the live value may
		// include uncommitted 2PL writes that a pending version carries).
		for j := len(chain) - 1; j >= 0; j-- {
			if chain[j].epoch != 0 {
				s.applyBacking(mr.ID, chain[j].rec, chain[j].epoch)
				break
			}
		}
	}
	return applied, nil
}

// addPendingRefLocked registers a pending-version location, skipping exact
// duplicates so repeated imports stay idempotent.
func (s *Store) addPendingRefLocked(txn uint64, file string, id abdm.RecordID) {
	for _, ref := range s.mvcc.pending[txn] {
		if ref.file == file && ref.id == id {
			return
		}
	}
	s.mvcc.pending[txn] = append(s.mvcc.pending[txn], chainRef{file, id})
}

// DropRecords removes the given records entirely — live state, indexes and
// version chains — returning how many held any state. Migration uses it to
// clear copies stranded on backends that left a key's holder set; the key's
// authoritative copies (with full chains) live elsewhere, so snapshots lose
// nothing.
func (s *Store) DropRecords(ids []abdm.RecordID) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, id := range ids {
		hit := false
		if _, ok := s.fileOf[id]; ok {
			if err := s.removeByIDLocked(id); err != nil {
				return n, err
			}
			hit = true
		}
		for file, chains := range s.mvcc.chains {
			if chain, ok := chains[id]; ok {
				for _, v := range chain {
					if v.epoch == 0 {
						s.pendingDec(id)
					}
				}
				s.mvcc.versions -= len(chain)
				s.setChainLocked(file, id, nil)
				s.bumpGen(file)
				hit = true
			}
		}
		if hit {
			n++
			s.applyBacking(id, nil, 0)
		}
	}
	return n, nil
}
