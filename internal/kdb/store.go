package kdb

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"

	"mlds/internal/abdl"
	"mlds/internal/abdm"
	"mlds/internal/pager"
)

// Store is one backend's partition of the kernel database: records grouped
// by file, with an inverted index per attribute. All operations are safe for
// concurrent use.
type Store struct {
	mu      sync.RWMutex
	dir     *abdm.Directory
	disk    DiskModel
	files   map[string]map[abdm.RecordID]*abdm.Record
	indexes map[string]*attrIndex // attribute name → index
	fileOf  map[abdm.RecordID]string
	nextID  func() abdm.RecordID
	noIndex bool // ablation switch: force full-file scans
	stats   storeStats

	// resident counts the non-nil bodies in files when the store is backed:
	// a backed store's files map holds nil for any record whose body lives
	// only in the page heap, and reads page such bodies in on demand.
	resident int

	// Retrieve-result cache. gens carries one generation counter per file,
	// bumped by every mutation that touches the file (and genAll by every
	// mutation); cached results remember the generations they were built
	// under and are dropped lazily when they no longer match. Both maps are
	// guarded by mu like the primary data; the cache has its own lock so
	// concurrent readers can share hits under mu.RLock.
	gens   map[string]uint64
	genAll uint64
	cache  retrieveCache

	// mvcc holds the per-record version chains behind snapshot reads; see
	// mvcc.go. Guarded by mu like the live maps.
	mvcc mvccState

	// backing is the paged on-disk side of the store (nil = memory only);
	// see paged.go. seedID advances the id allocator past a forced id so
	// replayed inserts never collide with fresh allocations.
	backing   *backing
	seedID    func(abdm.RecordID)
	pageSize  int
	poolPages int
}

// Option configures a Store.
type Option func(*Store)

// WithDisk sets the synthetic disk model.
func WithDisk(m DiskModel) Option { return func(s *Store) { s.disk = m } }

// WithIDAllocator supplies the database-key allocator. MBDS passes a shared
// allocator so keys are unique across backends; a standalone store defaults
// to a private counter.
func WithIDAllocator(next func() abdm.RecordID) Option {
	return func(s *Store) { s.nextID = next; s.seedID = nil }
}

// WithoutIndexes disables attribute indexes, forcing every query to scan its
// file. Exists for the index-vs-scan ablation benchmark.
func WithoutIndexes() Option { return func(s *Store) { s.noIndex = true } }

// WithResultCache sets the retrieve-result cache capacity in entries.
// Zero or negative disables the cache; the default is DefaultCacheSize.
func WithResultCache(entries int) Option {
	return func(s *Store) { s.cache.cap = entries }
}

// NewStore builds an empty store over the directory.
func NewStore(dir *abdm.Directory, opts ...Option) *Store {
	s := &Store{
		dir:     dir,
		disk:    DefaultDiskModel(),
		files:   make(map[string]map[abdm.RecordID]*abdm.Record),
		indexes: make(map[string]*attrIndex),
		fileOf:  make(map[abdm.RecordID]string),
		gens:    make(map[string]uint64),
	}
	s.cache.cap = DefaultCacheSize
	s.pageSize = pager.DefaultPageSize
	s.poolPages = defaultPoolPages
	var ctr abdm.RecordID
	s.nextID = func() abdm.RecordID { ctr++; return ctr }
	s.seedID = func(id abdm.RecordID) {
		if id > ctr {
			ctr = id
		}
	}
	for _, o := range opts {
		o(s)
	}
	s.cache.m = make(map[string]*cacheEntry)
	return s
}

// Directory returns the store's attribute catalog.
func (s *Store) Directory() *abdm.Directory { return s.dir }

// Len reports the number of stored records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.fileOf)
}

// FileLen reports the number of records in one file.
func (s *Store) FileLen(file string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.files[file])
}

// Exec executes one ABDL request and returns its result.
func (s *Store) Exec(req *abdl.Request) (*Result, error) {
	res, err := s.exec(req)
	s.stats.note(res, err)
	return res, err
}

// ExecBatch executes the requests in order, writing one result per request
// into out (len(out) == len(reqs)). It stops at the first failure and
// returns that request's error; the requests before it have run and their
// results are in out.
func (s *Store) ExecBatch(reqs []*abdl.Request, out []*Result) error {
	for i, req := range reqs {
		res, err := s.Exec(req)
		if err != nil {
			return err
		}
		out[i] = res
	}
	return nil
}

func (s *Store) exec(req *abdl.Request) (*Result, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	switch req.Kind {
	case abdl.Insert:
		return s.execInsert(req)
	case abdl.Delete:
		return s.execDelete(req)
	case abdl.Update:
		return s.execUpdate(req)
	case abdl.Retrieve:
		return s.execRetrieve(req)
	case abdl.RetrieveCommon:
		return s.execRetrieveCommon(req)
	case abdl.MvccCommit, abdl.MvccAbort, abdl.MvccGC:
		return s.execMvcc(req)
	}
	return nil, fmt.Errorf("kdb: unsupported request kind %v", req.Kind)
}

// execRetrieveCommon executes the semi-join locally: the common attribute's
// values under the second query filter the first query's records. MBDS
// overrides this with a two-phase cross-backend execution; the local path
// serves standalone stores.
func (s *Store) execRetrieveCommon(req *abdl.Request) (*Result, error) {
	if err := s.dir.ValidateQuery(req.Query); err != nil {
		return nil, err
	}
	if err := s.dir.ValidateQuery(req.Query2); err != nil {
		return nil, err
	}
	if _, ok := s.dir.AttrKind(req.Common); !ok {
		return nil, fmt.Errorf("kdb: RETRIEVE-COMMON names undeclared attribute %q", req.Common)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	res := &Result{Op: abdl.RetrieveCommon}
	qual := s.qualify
	if req.SnapEpoch != 0 {
		qual = func(q abdm.Query, c *Cost) ([]StoredRecord, []string, qualDeps, error) {
			return s.snapQualify(q, req.SnapEpoch, c)
		}
	}
	second, paths2, _, err := qual(req.Query2, &res.Cost)
	if err != nil {
		return nil, err
	}
	values := CommonValues(second, req.Common)
	first, paths1, _, err := qual(req.Query, &res.Cost)
	if err != nil {
		return nil, err
	}
	res.Paths = append(paths1, paths2...)
	kept := FilterByCommon(first, req.Common, values)
	out := make([]StoredRecord, len(kept))
	for i, sr := range kept {
		out[i] = StoredRecord{ID: sr.ID, Rec: project(sr.Rec, req.Target)}
	}
	res.Records = out
	if req.By != "" {
		res.Groups = groupBy(out, kept, req.By)
	}
	res.RecomputeAggregates(req.Target)
	return res, nil
}

// CommonValues collects the distinct non-null values of attr across records,
// keyed canonically. Exported for the controller's cross-backend semi-join.
func CommonValues(recs []StoredRecord, attr string) map[ikey]bool {
	out := make(map[ikey]bool)
	for _, sr := range recs {
		if v, ok := sr.Rec.Get(attr); ok && !v.IsNull() {
			out[keyOf(v)] = true
		}
	}
	return out
}

// FilterByCommon keeps the records whose attr value is in the value set.
func FilterByCommon(recs []StoredRecord, attr string, values map[ikey]bool) []StoredRecord {
	var out []StoredRecord
	for _, sr := range recs {
		if v, ok := sr.Rec.Get(attr); ok && !v.IsNull() && values[keyOf(v)] {
			out = append(out, sr)
		}
	}
	return out
}

// Insert stores the record and returns its database key. The record is
// cloned; callers keep ownership of their copy.
func (s *Store) Insert(rec *abdm.Record) (abdm.RecordID, error) {
	if err := s.dir.ValidateRecord(rec); err != nil {
		return 0, err
	}
	rec = rec.Clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextID()
	s.addLocked(id, rec)
	s.noteVersion(nil, rec.File(), id, rec)
	return id, nil
}

// InsertWithID stores a record under a caller-supplied database key. MBDS
// uses it when it redistributes records across backends; the key must not
// already be in use.
func (s *Store) InsertWithID(id abdm.RecordID, rec *abdm.Record) error {
	if err := s.dir.ValidateRecord(rec); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.fileOf[id]; dup {
		return fmt.Errorf("kdb: database key %d already in use", id)
	}
	if s.seedID != nil {
		s.seedID(id)
	}
	cp := rec.Clone()
	s.addLocked(id, cp)
	s.applyBacking(id, cp, 0)
	return nil
}

// insertForcedLocked stores the record under a caller-chosen database key,
// taking ownership of it like addLocked. Re-inserting an existing key
// replaces that record, which makes replicated INSERTs idempotent when the
// controller retries them.
func (s *Store) insertForcedLocked(id abdm.RecordID, rec *abdm.Record) error {
	if _, ok := s.fileOf[id]; ok {
		if err := s.removeByIDLocked(id); err != nil {
			return err
		}
	}
	if s.seedID != nil {
		s.seedID(id)
	}
	s.addLocked(id, rec)
	return nil
}

// bumpGen advances the file's and the store-wide mutation generations,
// lazily invalidating cached retrieve results that depended on the file.
// Caller must hold the write lock.
func (s *Store) bumpGen(file string) {
	s.gens[file]++
	s.genAll++
}

// addLocked publishes rec under id. The store takes ownership: from here on
// the record is shared with version chains, cached results and every reader,
// and nobody — the store included — writes to it again.
func (s *Store) addLocked(id abdm.RecordID, rec *abdm.Record) {
	file := rec.File()
	s.bumpGen(file)
	if s.files[file] == nil {
		s.files[file] = make(map[abdm.RecordID]*abdm.Record)
	}
	if s.backing != nil {
		if cur, ok := s.files[file][id]; !ok || cur == nil {
			s.resident++
		}
	}
	s.files[file][id] = rec
	s.fileOf[id] = file
	if !s.noIndex {
		for _, kw := range rec.Keywords {
			ix := s.indexes[kw.Attr]
			if ix == nil {
				ix = newAttrIndex()
				s.indexes[kw.Attr] = ix
			}
			ix.add(kw.Val, id)
		}
	}
}

func (s *Store) execInsert(req *abdl.Request) (*Result, error) {
	if err := s.dir.ValidateRecord(req.Record); err != nil {
		return nil, err
	}
	// The one copy an INSERT makes: the caller keeps its record, the store
	// owns this one.
	rec := req.Record.Clone()
	s.mu.Lock()
	id := req.ForceID
	if id != 0 {
		if err := s.insertForcedLocked(id, rec); err != nil {
			s.mu.Unlock()
			return nil, err
		}
	} else {
		id = s.nextID()
		s.addLocked(id, rec)
	}
	s.noteVersion(req, rec.File(), id, rec)
	s.mu.Unlock()
	res := &Result{Op: abdl.Insert, Count: 1, Affected: []abdm.RecordID{id}}
	res.Cost = Cost{FilesTouched: 1, BlocksWrit: 1, DirProbes: len(req.Record.Keywords)}
	return res, nil
}

// GetByID returns the stored record with the given database key, paging the
// body in from the backing heap when it is not resident. The record is the
// store's own: read-only, like the rows of a Result.
func (s *Store) GetByID(id abdm.RecordID) (*abdm.Record, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	file, ok := s.fileOf[id]
	if !ok {
		return nil, false
	}
	rec := s.files[file][id]
	if rec == nil {
		fetched, err := s.fetchLocked(id)
		if err != nil {
			return nil, false
		}
		return fetched, true
	}
	return rec, true
}

// fetchLocked pages one non-resident record body in from the backing heap.
// The returned record is a fresh decode the caller owns. Caller holds at
// least the read lock.
func (s *Store) fetchLocked(id abdm.RecordID) (*abdm.Record, error) {
	var out *abdm.Record
	err := s.fetchEach([]abdm.RecordID{id}, func(_ abdm.RecordID, rec *abdm.Record) error {
		out = rec
		return nil
	})
	return out, err
}

// fetchEach pages the given non-resident records in grouped by heap page —
// one pool pin per distinct page — decoding each cell in place in its pinned
// frame and calling fn with the body. The visit order follows the heap, not
// ids. Caller holds at least the read lock.
func (s *Store) fetchEach(ids []abdm.RecordID, fn func(id abdm.RecordID, rec *abdm.Record) error) error {
	if len(ids) == 0 {
		return nil
	}
	b := s.backing
	if b == nil {
		return fmt.Errorf("kdb: %d records have no resident body", len(ids))
	}
	// decode hands one pinned cell to fn. Its errors come back from GetMany
	// as they are; anything else GetMany returns is the heap's own failure
	// (a pin, a dead slot) and is wrapped as a paging error.
	var cbErr error
	decode := func(id abdm.RecordID, cell []byte) error {
		gotID, rec, err := decodeRecord(cell, &b.names)
		switch {
		case err != nil:
			cbErr = fmt.Errorf("kdb: paging in record %d: %w", id, err)
		case gotID != id:
			cbErr = fmt.Errorf("kdb: backing cell for record %d holds record %d", id, gotID)
		default:
			cbErr = fn(id, rec)
		}
		return cbErr
	}
	if len(ids) == 1 {
		// A point read: nothing to sort, nothing allocated besides the decode.
		id := ids[0]
		rid, ok := b.rids[id]
		if !ok {
			return fmt.Errorf("kdb: record %d has no backing cell", id)
		}
		err := b.heap.GetMany([]pager.RID{rid}, func(_ int, cell []byte) error { return decode(id, cell) })
		if err != nil && err != cbErr {
			return fmt.Errorf("kdb: paging in record %d: %w", id, err)
		}
		return err
	}
	type pinned struct {
		id  abdm.RecordID
		rid pager.RID
	}
	prs := make([]pinned, 0, len(ids))
	for _, id := range ids {
		rid, ok := b.rids[id]
		if !ok {
			return fmt.Errorf("kdb: record %d has no backing cell", id)
		}
		prs = append(prs, pinned{id, rid})
	}
	slices.SortFunc(prs, func(a, b pinned) int {
		return cmp.Or(cmp.Compare(a.rid.Page, b.rid.Page), cmp.Compare(a.rid.Slot, b.rid.Slot))
	})
	rids := make([]pager.RID, len(prs))
	for i := range prs {
		rids[i] = prs[i].rid
	}
	err := b.heap.GetMany(rids, func(i int, cell []byte) error { return decode(prs[i].id, cell) })
	if err != nil && err != cbErr {
		return fmt.Errorf("kdb: paging in %d records: %w", len(ids), err)
	}
	return err
}

// removeByIDLocked removes a record by key, paging its body in first when
// the live index needs the keywords for maintenance.
func (s *Store) removeByIDLocked(id abdm.RecordID) error {
	file, ok := s.fileOf[id]
	if !ok {
		return nil
	}
	rec := s.files[file][id]
	if rec == nil && !s.noIndex {
		var err error
		if rec, err = s.fetchLocked(id); err != nil {
			return err
		}
	}
	s.removeLocked(id, rec)
	return nil
}

// qualDeps describes which files a qualification depended on, for the
// retrieve-result cache. allFiles is set when some conjunction carried no
// file predicate: such a query can match records of files that do not exist
// yet, so its cache entries depend on the store-wide generation.
type qualDeps struct {
	files    map[string]bool
	allFiles bool
}

// qualify finds the records matching the query, charging costs to c and
// recording the chosen access paths and file dependencies. Non-resident
// record bodies are paged in from the backing heap, grouped by page; the
// error return surfaces paging failures. Caller must hold at least a read
// lock.
func (s *Store) qualify(q abdm.Query, c *Cost) ([]StoredRecord, []string, qualDeps, error) {
	matched := make(map[abdm.RecordID]*abdm.Record)
	deps := qualDeps{files: make(map[string]bool)}
	var paths []string
	for _, conj := range q {
		if _, hasFile := conj.File(); !hasFile {
			deps.allFiles = true
		}
		path, err := s.qualifyConj(conj, matched, deps.files, c)
		if err != nil {
			return nil, nil, deps, err
		}
		paths = append(paths, path)
	}
	if len(q) == 0 {
		// Unqualified request addresses every record.
		deps.allFiles = true
		paths = append(paths, "scan(*)")
		for file, recs := range s.files {
			deps.files[file] = true
			var misses []abdm.RecordID
			for id, r := range recs {
				if r == nil {
					misses = append(misses, id)
					continue
				}
				matched[id] = r
			}
			if err := s.fetchEach(misses, func(id abdm.RecordID, rec *abdm.Record) error {
				matched[id] = rec
				return nil
			}); err != nil {
				return nil, nil, deps, err
			}
			c.RecordsExam += len(recs)
			c.BlocksRead += s.disk.blocks(len(recs))
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

// sortStoredByID orders records by database key, the canonical result order.
func sortStoredByID(recs []StoredRecord) {
	slices.SortFunc(recs, func(a, b StoredRecord) int { return cmp.Compare(a.ID, b.ID) })
}

// qualifyConj resolves one conjunction, using the most selective indexable
// predicate as the access path and verifying the rest against candidates.
// It returns a description of the chosen path.
func (s *Store) qualifyConj(conj abdm.Conjunction, matched map[abdm.RecordID]*abdm.Record, filesSeen map[string]bool, c *Cost) (string, error) {
	file, hasFile := conj.File()
	if hasFile {
		filesSeen[file] = true
		if s.files[file] == nil {
			return "empty(" + file + ")", nil
		}
	} else {
		for f := range s.files {
			filesSeen[f] = true
		}
	}

	// Pick the cheapest equality-indexed predicate as the access path.
	var best *abdm.Predicate
	bestCard := 0
	if !s.noIndex {
		for i := range conj {
			p := conj[i]
			if p.Op != abdm.OpEq || p.Val.IsNull() {
				continue
			}
			ix := s.indexes[p.Attr]
			if ix == nil {
				// Attribute never stored: an Eq predicate on it can match
				// nothing, so the conjunction is empty.
				if p.Attr != abdm.FileAttr {
					return "empty(" + p.Attr + ")", nil
				}
				continue
			}
			card := ix.cardinality(p.Val)
			if best == nil || card < bestCard {
				best, bestCard = &conj[i], card
			}
		}
	}

	verify := func(id abdm.RecordID, rec *abdm.Record) error {
		c.RecordsExam++
		if conj.Matches(rec) {
			matched[id] = rec
		}
		return nil
	}
	// verifyIDs checks index candidates: resident bodies directly, the
	// others paged in with one fetchEach, grouped by heap page.
	verifyIDs := func(ids []abdm.RecordID) error {
		var one [1]abdm.RecordID // a point read's miss stays on the stack
		misses := one[:0]
		for _, id := range ids {
			f := s.fileOf[id]
			if hasFile && f != file {
				continue
			}
			if rec := s.files[f][id]; rec != nil {
				verify(id, rec)
			} else {
				misses = append(misses, id)
			}
		}
		return s.fetchEach(misses, verify)
	}

	if best != nil {
		c.DirProbes++
		ids := s.indexes[best.Attr].lookupEq(best.Val)
		c.BlocksRead += s.disk.blocks(len(ids))
		if err := verifyIDs(ids); err != nil {
			return "", err
		}
		return "index-eq(" + best.Attr + ")", nil
	}

	// No equality access path: try a range predicate over an indexed
	// attribute before resorting to a scan. The index's distinct-value list
	// bounds the candidates; each distinct value costs a directory probe.
	if !s.noIndex {
		for i := range conj {
			p := conj[i]
			if p.Op == abdm.OpEq || p.Op == abdm.OpNe || p.Val.IsNull() || p.Attr == abdm.FileAttr {
				continue
			}
			ix := s.indexes[p.Attr]
			if ix == nil {
				// The attribute was never stored: a range predicate on it
				// cannot match any record.
				return "empty(" + p.Attr + ")", nil
			}
			ids, probes := ix.lookupRange(p.Op, p.Val)
			c.DirProbes += probes
			c.BlocksRead += s.disk.blocks(len(ids))
			if err := verifyIDs(ids); err != nil {
				return "", err
			}
			return "index-range(" + p.Attr + ")", nil
		}
	}

	// Fall back to scanning the conjunction's file (or all files),
	// batching the non-resident bodies by heap page.
	scan := func(f string) error {
		recs := s.files[f]
		c.BlocksRead += s.disk.blocks(len(recs))
		var misses []abdm.RecordID
		for id, rec := range recs {
			if rec == nil {
				misses = append(misses, id)
				continue
			}
			verify(id, rec)
		}
		return s.fetchEach(misses, verify)
	}
	if hasFile {
		if err := scan(file); err != nil {
			return "", err
		}
		return "scan(" + file + ")", nil
	}
	for f := range s.files {
		if err := scan(f); err != nil {
			return "", err
		}
	}
	return "scan(*)", nil
}

func (s *Store) execDelete(req *abdl.Request) (*Result, error) {
	if err := s.dir.ValidateQuery(req.Query); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res := &Result{Op: abdl.Delete}
	if req.ForceID != 0 {
		// Targeted delete by database key: remove exactly that record
		// wherever it lives, ignoring the qualification. The transaction
		// manager's undo path uses this to erase an inserted record (and
		// every replica of it) without content-based matching.
		if file, ok := s.fileOf[req.ForceID]; ok {
			if err := s.removeByIDLocked(req.ForceID); err != nil {
				return nil, err
			}
			s.noteVersion(req, file, req.ForceID, nil)
			res.Affected = append(res.Affected, req.ForceID)
			res.Count = 1
			res.Cost.BlocksWrit += s.disk.blocks(1)
		}
		return res, nil
	}
	victims, paths, _, err := s.qualify(req.Query, &res.Cost)
	if err != nil {
		return nil, err
	}
	res.Paths = paths
	for _, sr := range victims {
		file := s.fileOf[sr.ID]
		s.removeLocked(sr.ID, sr.Rec)
		s.noteVersion(req, file, sr.ID, nil)
		res.Affected = append(res.Affected, sr.ID)
	}
	res.Count = len(victims)
	res.Cost.BlocksWrit += s.disk.blocks(len(victims))
	return res, nil
}

func (s *Store) removeLocked(id abdm.RecordID, rec *abdm.Record) {
	file := s.fileOf[id]
	s.bumpGen(file)
	if s.backing != nil && s.files[file][id] != nil {
		s.resident--
	}
	delete(s.files[file], id)
	delete(s.fileOf, id)
	if !s.noIndex && rec != nil {
		for _, kw := range rec.Keywords {
			if ix := s.indexes[kw.Attr]; ix != nil {
				ix.remove(kw.Val, id)
			}
		}
	}
}

func (s *Store) execUpdate(req *abdl.Request) (*Result, error) {
	if err := s.dir.ValidateQuery(req.Query); err != nil {
		return nil, err
	}
	for _, m := range req.Mods {
		kind, ok := s.dir.AttrKind(m.Attr)
		if !ok {
			return nil, fmt.Errorf("kdb: modifier names undeclared attribute %q", m.Attr)
		}
		if !m.Val.IsNull() && m.Val.Kind() != kind {
			return nil, fmt.Errorf("kdb: modifier for %q (%v) has %v value", m.Attr, kind, m.Val.Kind())
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	res := &Result{Op: abdl.Update}
	targets, paths, _, err := s.qualify(req.Query, &res.Cost)
	if err != nil {
		return nil, err
	}
	res.Paths = paths
	for _, sr := range targets {
		file := s.fileOf[sr.ID]
		s.bumpGen(file)
		res.Affected = append(res.Affected, sr.ID)
		// Copy on write: the stored record is shared with version chains,
		// cached results and readers still holding earlier results, so the
		// modifiers go to a copy that then replaces it.
		next := sr.Rec.Clone()
		for _, m := range req.Mods {
			if !s.noIndex {
				if old, ok := next.Get(m.Attr); ok {
					if ix := s.indexes[m.Attr]; ix != nil {
						ix.remove(old, sr.ID)
					}
				}
			}
			next.Set(m.Attr, m.Val)
			if !s.noIndex {
				ix := s.indexes[m.Attr]
				if ix == nil {
					ix = newAttrIndex()
					s.indexes[m.Attr] = ix
				}
				ix.add(m.Val, sr.ID)
			}
		}
		// A paged body becomes resident again with the write: the heap cell no
		// longer matches it.
		if s.backing != nil && s.files[file][sr.ID] == nil {
			s.resident++
		}
		s.files[file][sr.ID] = next
		s.noteVersion(req, file, sr.ID, next)
	}
	res.Count = len(targets)
	res.Cost.BlocksWrit += s.disk.blocks(len(targets))
	return res, nil
}

func (s *Store) execRetrieve(req *abdl.Request) (*Result, error) {
	if err := s.dir.ValidateQuery(req.Query); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	key := s.cacheKey(req)
	if hit, ok := s.cacheLookup(key); ok {
		s.stats.cacheHits.Add(1)
		return hit, nil
	}
	if s.cache.cap > 0 {
		s.stats.cacheMisses.Add(1)
	}
	res := &Result{Op: req.Kind}
	var (
		recs  []StoredRecord
		paths []string
		deps  qualDeps
		err   error
	)
	if req.SnapEpoch != 0 {
		recs, paths, deps, err = s.snapQualify(req.Query, req.SnapEpoch, &res.Cost)
	} else {
		recs, paths, deps, err = s.qualify(req.Query, &res.Cost)
	}
	if err != nil {
		return nil, err
	}
	res.Paths = paths

	// Project to the target list.
	out := make([]StoredRecord, len(recs))
	for i, sr := range recs {
		out[i] = StoredRecord{ID: sr.ID, Rec: project(sr.Rec, req.Target)}
	}
	res.Records = out

	if req.By != "" {
		res.Groups = groupBy(out, recs, req.By)
	}
	res.RecomputeAggregates(req.Target)
	s.cacheFill(key, res, deps)
	return res, nil
}

// project returns rec restricted to the target attributes: a new record for
// an explicit attribute list, rec itself — shared, read-only — for AllAttrs,
// an aggregate or an empty list, which keep everything.
func project(rec *abdm.Record, target []abdl.TargetItem) *abdm.Record {
	all := len(target) == 0
	for _, t := range target {
		if t.Attr == abdl.AllAttrs || t.Agg != abdl.AggNone {
			all = true
		}
	}
	if all {
		return rec
	}
	out := &abdm.Record{Text: rec.Text}
	for _, t := range target {
		if v, ok := rec.Get(t.Attr); ok {
			out.Set(t.Attr, v)
		}
	}
	return out
}

// groupBy partitions projected records by the by-attribute's value in the
// unprojected source records.
func groupBy(projected, source []StoredRecord, by string) []Group {
	byKey := make(map[string]*Group)
	var order []string
	for i, sr := range source {
		v, _ := sr.Rec.Get(by)
		k := v.String()
		g, ok := byKey[k]
		if !ok {
			g = &Group{By: v}
			byKey[k] = g
			order = append(order, k)
		}
		g.Recs = append(g.Recs, projected[i])
	}
	sort.Strings(order)
	out := make([]Group, 0, len(order))
	for _, k := range order {
		out = append(out, *byKey[k])
	}
	return out
}

// Files lists the files that currently hold records, sorted.
func (s *Store) Files() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.files))
	for f, recs := range s.files {
		if len(recs) > 0 {
			out = append(out, f)
		}
	}
	sort.Strings(out)
	return out
}

// Snapshot returns every stored record ordered by ID, for persistence and
// repartitioning, paging non-resident bodies in from the backing heap. The
// records are the store's own: read-only, like the rows of a Result.
func (s *Store) Snapshot() ([]StoredRecord, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]StoredRecord, 0, len(s.fileOf))
	var misses []abdm.RecordID
	for id, file := range s.fileOf {
		rec := s.files[file][id]
		if rec == nil {
			misses = append(misses, id)
			continue
		}
		out = append(out, StoredRecord{ID: id, Rec: rec})
	}
	if err := s.fetchEach(misses, func(id abdm.RecordID, rec *abdm.Record) error {
		out = append(out, StoredRecord{ID: id, Rec: rec})
		return nil
	}); err != nil {
		return nil, err
	}
	sortStoredByID(out)
	return out, nil
}
