package kdb

import (
	"fmt"
	"strconv"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
)

// Multi-version concurrency control.
//
// The live maps (Store.files, Store.indexes) remain the authoritative
// current state, changed under strict 2PL exactly as before — by replacing a
// record, never by writing into one, so a chain entry and the live map can
// hold the same pointer. Each record additionally carries a version chain —
// an append-only history of its values — which is what lock-free snapshot
// reads (Request.SnapEpoch) resolve against:
//
//   - Every mutation appends a version: the post-image for INSERT/UPDATE, a
//     nil tombstone for DELETE. A mutation executed under a transaction
//     (Request.TxnID != 0) appends it pending (epoch 0, invisible to every
//     snapshot); the transaction manager later broadcasts MVCC-COMMIT to
//     stamp the transaction's pending versions with its commit epoch, or
//     MVCC-ABORT to discard them. A mutation with TxnID 0 (bulk load,
//     journal replay) is stamped immediately at the store's current epoch.
//   - A snapshot read at epoch T sees, per record, the newest version with
//     0 < epoch ≤ T; a tombstone or an empty prefix means the record did
//     not exist at T.
//   - MVCC-GC prunes versions superseded at or below the watermark (the
//     oldest live snapshot's epoch): within each chain every version older
//     than the newest committed version ≤ watermark is unreachable by any
//     current or future snapshot and is dropped.
//
// Within one chain, committed epochs are non-decreasing in append order:
// writers to the same record are serialized by the lock table, and commit
// epochs are issued by a single group-commit leader.

// version is one entry of a record's version chain.
type version struct {
	epoch uint64       // commit epoch; 0 = pending under txn
	txn   uint64       // writing transaction (0 = auto-stamped)
	rec   *abdm.Record // the value as of this version; nil = tombstone
}

// chainRef locates one record's version chain.
type chainRef struct {
	file string
	id   abdm.RecordID
}

// mvccState is the store's version-chain bookkeeping, guarded by the
// store's main mutex like the live maps.
type mvccState struct {
	epoch    uint64                                 // newest commit epoch this store has seen
	chains   map[string]map[abdm.RecordID][]version // file → record → history
	pending  map[uint64][]chainRef                  // txn → chains holding its pending versions
	versions int                                    // live version count, for the gauge

	// work holds exactly the chains a sweep may shorten now or after a
	// stamp (see prunable), so MVCC-GC visits the chains changed since the
	// last sweep instead of every record's. Every chain write goes through
	// setChainLocked, which keeps it exact.
	work map[chainRef]struct{}
}

// prunable reports whether a GC sweep could ever shorten the chain without
// another write to it: it holds more than one version, a lone tombstone, or
// a pending version that a stamp will commit.
func prunable(chain []version) bool {
	return len(chain) > 1 || len(chain) == 1 && (chain[0].rec == nil || chain[0].epoch == 0)
}

// initChainsLocked sets up the chain maps on first use.
func (s *Store) initChainsLocked() {
	if s.mvcc.chains != nil {
		return
	}
	s.mvcc.chains = make(map[string]map[abdm.RecordID][]version)
	s.mvcc.pending = make(map[uint64][]chainRef)
	s.mvcc.work = make(map[chainRef]struct{})
	if s.mvcc.epoch == 0 {
		s.mvcc.epoch = 1
	}
}

// noteVersion appends one version for a mutation of (file, id). rec is the
// post-image — the record the store just published, shared with the chain —
// or nil for a delete. Caller holds the write lock.
func (s *Store) noteVersion(req *abdl.Request, file string, id abdm.RecordID, rec *abdm.Record) {
	if req != nil && req.NoVersion {
		return
	}
	s.initChainsLocked()
	s.seedChainLocked(id)
	v := version{rec: rec}
	if req != nil {
		v.txn = req.TxnID
	}
	if v.txn == 0 {
		// Immediately stamped (bulk load, journal replay): the mutation is
		// committed state, so it writes through to the paged backing now.
		v.epoch = s.mvcc.epoch
		s.applyBacking(id, rec, v.epoch)
	} else {
		s.mvcc.pending[v.txn] = append(s.mvcc.pending[v.txn], chainRef{file, id})
		s.pendingInc(id)
	}
	s.setChainLocked(file, id, append(s.mvcc.chains[file][id], v))
	s.mvcc.versions++
}

// seedChainLocked gives a paged-in record its base version before its first
// mutation since open: a backed store materialises no chains at open, so the
// first write decodes the committed heap cell into the chain's base entry —
// older snapshots keep seeing the pre-write value. A seed that fails to read
// the heap poisons the backing (sticky error) rather than silently losing
// history.
func (s *Store) seedChainLocked(id abdm.RecordID) {
	b := s.backing
	if b == nil {
		return
	}
	if _, inHeap := b.rids[id]; !inHeap {
		return
	}
	cfile, ok := b.fileOfC[id]
	if !ok || len(s.mvcc.chains[cfile][id]) > 0 {
		return
	}
	base, err := s.fetchLocked(id)
	if err != nil {
		if b.err == nil {
			b.err = fmt.Errorf("kdb: seeding version chain: %w", err)
		}
		return
	}
	s.setChainLocked(cfile, id, []version{{epoch: b.baseEpoch, rec: base}})
	s.mvcc.versions++
}

// execMvcc dispatches the kernel-internal MVCC administration operations.
func (s *Store) execMvcc(req *abdl.Request) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := &Result{Op: req.Kind}
	switch req.Kind {
	case abdl.MvccCommit:
		res.Count = s.stampLocked(req.TxnID, req.MvccEpoch)
	case abdl.MvccAbort:
		res.Count, res.Affected = s.discardLocked(req.TxnID)
	case abdl.MvccGC:
		res.Count, res.Affected = s.pruneLocked(req.MvccEpoch)
	default:
		return nil, fmt.Errorf("kdb: unsupported MVCC operation %v", req.Kind)
	}
	res.Versions = s.mvcc.versions
	return res, nil
}

// stampLocked commits txn's pending versions at the given epoch and advances
// the store's epoch, returning how many versions were stamped. Stamping is
// idempotent: a retried MVCC-COMMIT finds no pending versions left.
func (s *Store) stampLocked(txn, epoch uint64) int {
	if epoch > s.mvcc.epoch {
		s.mvcc.epoch = epoch
	}
	refs := s.mvcc.pending[txn]
	if refs == nil {
		return 0
	}
	delete(s.mvcc.pending, txn)
	n := 0
	for _, ref := range refs {
		chain := s.mvcc.chains[ref.file][ref.id]
		for i := range chain {
			if chain[i].epoch == 0 && chain[i].txn == txn {
				chain[i].epoch = epoch
				n++
				s.pendingDec(ref.id)
			}
		}
		s.setChainLocked(ref.file, ref.id, chain)
	}
	// The stamped versions are now committed state: write each touched
	// chain's newest committed value through to the paged backing.
	s.backingStamp(refs, epoch)
	return n
}

// discardLocked drops txn's pending versions, returning how many were
// removed plus the keys whose chains ended up empty (records whose entire
// history was the aborted transaction — the controller may forget their
// placement). The live store is restored separately by the transaction
// manager's undo; the chain simply forgets the aborted history.
func (s *Store) discardLocked(txn uint64) (int, []abdm.RecordID) {
	refs := s.mvcc.pending[txn]
	if refs == nil {
		return 0, nil
	}
	delete(s.mvcc.pending, txn)
	n := 0
	var emptied []abdm.RecordID
	for _, ref := range refs {
		chain := s.mvcc.chains[ref.file][ref.id]
		kept := chain[:0]
		for _, v := range chain {
			if v.epoch == 0 && v.txn == txn {
				n++
				s.pendingDec(ref.id)
				continue
			}
			kept = append(kept, v)
		}
		if len(kept) == 0 && len(chain) > 0 {
			emptied = append(emptied, ref.id)
		}
		s.setChainLocked(ref.file, ref.id, kept)
	}
	s.mvcc.versions -= n
	return n, emptied
}

// pruneLocked drops every version superseded at or below the watermark: in
// each chain, all versions older than the newest committed version with
// epoch ≤ watermark. If that survivor is a tombstone and nothing follows it,
// the whole chain goes — no snapshot at or after the watermark can resurrect
// a record deleted before it. Returns the number of versions pruned and the
// keys whose whole chains were removed (deleted records no snapshot can
// reach any more — the controller may forget their placement).
//
// Only the work set is visited — every other chain is a single committed
// version no sweep can shorten — so a sweep costs the chains written since
// the previous one, not the store's size.
func (s *Store) pruneLocked(watermark uint64) (int, []abdm.RecordID) {
	pruned := 0
	var removed []abdm.RecordID
	for ref := range s.mvcc.work {
		n, gone := s.pruneChainLocked(ref, watermark)
		pruned += n
		if gone {
			removed = append(removed, ref.id)
		}
	}
	s.mvcc.versions -= pruned
	return pruned, removed
}

// pruneChainLocked prunes one chain at the watermark, returning how many
// versions it dropped and whether the whole chain went.
func (s *Store) pruneChainLocked(ref chainRef, watermark uint64) (int, bool) {
	chain := s.mvcc.chains[ref.file][ref.id]
	keep := 0 // index of the newest committed version ≤ watermark
	found := false
	for i, v := range chain {
		if v.epoch != 0 && v.epoch <= watermark {
			keep, found = i, true
		}
	}
	switch {
	case !found:
		return 0, false
	case keep == len(chain)-1 && chain[keep].rec == nil:
		s.setChainLocked(ref.file, ref.id, nil)
		return len(chain), true
	case keep > 0:
		s.setChainLocked(ref.file, ref.id, append([]version(nil), chain[keep:]...))
	}
	return keep, false
}

// setChainLocked replaces one record's chain, creating or removing map
// entries as needed, and keeps the GC work set exact. It is the only way a
// chain changes; a stamp, which rewrites epochs in place, calls it with the
// same slice.
func (s *Store) setChainLocked(file string, id abdm.RecordID, chain []version) {
	ref := chainRef{file, id}
	if prunable(chain) {
		s.mvcc.work[ref] = struct{}{}
	} else {
		delete(s.mvcc.work, ref)
	}
	if len(chain) == 0 {
		delete(s.mvcc.chains[file], id)
		if len(s.mvcc.chains[file]) == 0 {
			delete(s.mvcc.chains, file)
		}
		return
	}
	if s.mvcc.chains[file] == nil {
		s.mvcc.chains[file] = make(map[abdm.RecordID][]version)
	}
	s.mvcc.chains[file][id] = chain
}

// visibleAt resolves the record value a snapshot at epoch sees: the newest
// version with 0 < epoch ≤ at. nil means the record is invisible — deleted,
// not yet created, or only pending at the snapshot.
func visibleAt(chain []version, at uint64) *abdm.Record {
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].epoch != 0 && chain[i].epoch <= at {
			return chain[i].rec
		}
	}
	return nil
}

// snapQualify finds the records visible to a snapshot at the given epoch
// that match the query. In a memory store it reads version chains only —
// never the live maps and never the attribute indexes (which index live
// state). A backed store materialises no chain for a record until its first
// mutation since open, so each file additionally gets a membership pass:
// chainless records are committed base state, visible to every snapshot at
// or past the image's epoch, and their bodies are paged in from the heap.
// Caller must hold at least a read lock.
func (s *Store) snapQualify(q abdm.Query, at uint64, c *Cost) ([]StoredRecord, []string, qualDeps, error) {
	matched := make(map[abdm.RecordID]*abdm.Record)
	deps := qualDeps{files: make(map[string]bool)}
	var paths []string
	scanFile := func(file string, conj abdm.Conjunction) error {
		chains := s.mvcc.chains[file]
		c.BlocksRead += s.disk.blocks(len(chains))
		for id, chain := range chains {
			rec := visibleAt(chain, at)
			if rec == nil {
				continue
			}
			c.RecordsExam++
			if conj == nil || conj.Matches(rec) {
				matched[id] = rec
			}
		}
		b := s.backing
		if b == nil || at < b.baseEpoch {
			return nil
		}
		var misses []abdm.RecordID
		for id := range s.files[file] {
			if _, chained := chains[id]; chained {
				continue
			}
			if cfile, ok := b.fileOfC[id]; !ok || cfile != file {
				continue
			}
			misses = append(misses, id)
		}
		return s.fetchEach(misses, func(id abdm.RecordID, rec *abdm.Record) error {
			c.RecordsExam++
			if conj == nil || conj.Matches(rec) {
				matched[id] = rec
			}
			return nil
		})
	}
	// A backed store's base records live in files without any chain entry,
	// so the all-file walks cover the union of both key sets.
	allFiles := func() map[string]bool {
		set := make(map[string]bool, len(s.mvcc.chains))
		for f := range s.mvcc.chains {
			set[f] = true
		}
		if s.backing != nil {
			for f := range s.files {
				set[f] = true
			}
		}
		return set
	}
	scan := func(conj abdm.Conjunction) (string, error) {
		if file, ok := conj.File(); ok {
			deps.files[file] = true
			return "snap(" + file + ")", scanFile(file, conj)
		}
		deps.allFiles = true
		for file := range allFiles() {
			deps.files[file] = true
			if err := scanFile(file, conj); err != nil {
				return "", err
			}
		}
		return "snap(*)", nil
	}
	for _, conj := range q {
		path, err := scan(conj)
		if err != nil {
			return nil, nil, deps, err
		}
		paths = append(paths, path)
	}
	if len(q) == 0 {
		deps.allFiles = true
		paths = append(paths, "snap(*)")
		for file := range allFiles() {
			deps.files[file] = true
			if err := scanFile(file, nil); err != nil {
				return nil, nil, deps, err
			}
		}
	}
	c.FilesTouched = len(deps.files)
	out := make([]StoredRecord, 0, len(matched))
	for id, r := range matched {
		out = append(out, StoredRecord{ID: id, Rec: r})
	}
	sortStoredByID(out)
	return out, paths, deps, nil
}

// snapCacheKey extends the retrieve-cache key with the snapshot epoch, so a
// snapshot result can never answer a live read (or a read at another epoch)
// and vice versa.
func snapCacheKey(key string, epoch uint64) string {
	return key + " @snap=" + strconv.FormatUint(epoch, 10)
}

// VersionStats reports the store's MVCC footprint: live version count and
// the newest commit epoch it has seen.
func (s *Store) VersionStats() (versions int, epoch uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.mvcc.versions, s.mvcc.epoch
}
