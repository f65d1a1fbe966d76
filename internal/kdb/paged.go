package kdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"sync/atomic"

	"mlds/internal/abdm"
	"mlds/internal/pager"
)

// Paged backing.
//
// A backed store keeps its committed state in a pager heap; the live maps
// hold the record *membership* (file → id) but not, in general, the record
// bodies: a body is resident only while it differs from the committed heap
// cell (an uncommitted 2PL write, or a committed write whose write-through
// has not caught up). Everything else is paged in from the buffer pool on
// demand, so a database several times the pool size serves reads and scans
// in bounded memory. Every committed effect (an MVCC stamp, an
// immediately-stamped bulk write, a migration import or drop) is written
// through to the heap under the store mutex; once the heap cell matches the
// live value again the body is dropped from RAM.
//
// The pool does no fsync on the write path — durability comes from
// checkpoints, which flush the pool, serialise the committed access
// structures (RID map, free-space map, per-attribute indexes) into blob
// pages, and commit a new page-file generation whose metadata records both
// the image's exact journal position and the index chain's root. Crash
// recovery mounts the last committed generation, loads the index image in
// O(index pages), and replays only the journal tail past the recorded
// position.
//
// While a checkpoint flushes, a fence redirects write-throughs into a
// deferred queue instead of the heap — group commit never waits on
// checkpoint I/O — and the queue drains when the checkpoint finishes.

// ErrNoBacking reports a checkpoint operation on a store without a paged
// backing file.
var ErrNoBacking = errors.New("kdb: store has no paged backing")

// ErrCheckpointActive reports an attempt to begin a checkpoint while one is
// already fencing the store.
var ErrCheckpointActive = errors.New("kdb: checkpoint already in progress")

// backApply is one write-through deferred by a checkpoint fence.
type backApply struct {
	id    abdm.RecordID
	rec   *abdm.Record // nil = delete
	epoch uint64
}

// backing is the paged on-disk side of a Store. All fields are guarded by
// the store mutex except the heap, which has its own lock so checkpoint
// flushes and demand reads can run without stalling the store.
type backing struct {
	file *pager.File
	pool *pager.Pool
	heap *pager.Heap

	rids     map[abdm.RecordID]pager.RID
	names    nameTable                // interned attribute and file names for the decoder
	fileOfC  map[abdm.RecordID]string // committed file per record (image contents)
	cIndexes map[string]*attrIndex    // attr indexes over committed state only
	pending  map[abdm.RecordID]int    // records with uncommitted versions in RAM

	appliedEpoch uint64 // newest commit epoch written through
	baseEpoch    uint64 // epoch the mounted image was exact at (≥ 1)
	maxID        uint64 // record-id high water ever applied
	fence        bool
	deferred     []backApply
	err          error // first write-through failure; sticky

	indexPages []uint32   // blob pages of the committed generation's image
	ckptPages  []uint32   // blob pages a CheckpointFlush just committed
	ckptOK     bool       // the last flush committed and ckptPages supersede indexPages
	img        imageCache // sections of the last image payload built
}

// WithPageSize sets the page size used by CreateBacked. The default is
// pager.DefaultPageSize.
func WithPageSize(n int) Option { return func(s *Store) { s.pageSize = n } }

// WithPoolPages caps the buffer pool at n resident pages. The default keeps
// 1024 pages (4 MiB at the default page size).
func WithPoolPages(n int) Option { return func(s *Store) { s.poolPages = n } }

const defaultPoolPages = 1024

// CreateBacked builds an empty store whose committed state is written
// through to a new page file at path.
func CreateBacked(path string, dir *abdm.Directory, opts ...Option) (*Store, error) {
	s := NewStore(dir, opts...)
	f, err := pager.Create(path, s.pageSize)
	if err != nil {
		return nil, err
	}
	s.attachBacking(f)
	return s, nil
}

// ErrNoIndexImage reports a page-file generation with heap pages but no
// persisted index image: every checkpoint commits an image, so such a
// generation was not written by a checkpoint and cannot be mounted.
var ErrNoIndexImage = errors.New("kdb: page-file generation has no index image")

// OpenBacked mounts the page file's last committed generation and builds a
// store from it. The generation's persisted index image (Meta.HasIndex)
// restores the RID map, membership and attribute indexes by reading the
// image's blob chain — O(index pages) — and materialises no record body:
// reads page bodies in on demand. A generation without an image is the empty
// one CreateBacked commits and mounts as an empty store; one whose heap holds
// pages is refused with ErrNoIndexImage. The returned metadata carries the
// checkpoint position for bounded-tail journal recovery.
func OpenBacked(path string, dir *abdm.Directory, opts ...Option) (*Store, pager.Meta, error) {
	return openBacked(path, dir, nil, opts)
}

// OpenBackedAt is OpenBacked bounded to the newest committed generation
// whose metadata covers at most maxEntries journal entries — the cut a fleet
// recovery computes so every backend mounts the same coordinated checkpoint.
// When a newer generation is passed over, the choice is sealed by committing
// the chosen generation again, so a later unbounded open cannot resurrect
// the abandoned one.
func OpenBackedAt(path string, dir *abdm.Directory, maxEntries uint64, opts ...Option) (*Store, pager.Meta, error) {
	return openBacked(path, dir, &maxEntries, opts)
}

func openBacked(path string, dir *abdm.Directory, bound *uint64, opts []Option) (*Store, pager.Meta, error) {
	s := NewStore(dir, opts...)
	var (
		f    *pager.File
		err  error
		seal bool
	)
	if bound == nil {
		f, err = pager.Open(path)
	} else {
		var metas []pager.Meta
		metas, err = pager.Metas(path)
		if err != nil {
			return nil, pager.Meta{}, err
		}
		f, err = pager.OpenAt(path, *bound)
		if err == nil && len(metas) > 0 && metas[0].Entries > f.Meta().Entries {
			seal = true
		}
	}
	if err != nil {
		return nil, pager.Meta{}, err
	}
	meta := f.Meta()
	if seal {
		// Abandon the newer generation for good: recommitting the chosen one
		// overwrites the abandoned superblock, so no later open — and no
		// write into what it thought were its pages — can tear it.
		if err := f.Commit(meta); err != nil {
			f.Close()
			return nil, pager.Meta{}, err
		}
		meta = f.Meta()
	}
	pool := pager.NewPool(f, s.poolPages)
	baseEpoch := meta.Epoch
	if baseEpoch == 0 {
		baseEpoch = 1
	}
	s.mvcc.epoch = baseEpoch
	s.initChainsLocked()
	b := &backing{
		file: f, pool: pool,
		rids:         make(map[abdm.RecordID]pager.RID),
		fileOfC:      make(map[abdm.RecordID]string),
		cIndexes:     make(map[string]*attrIndex),
		pending:      make(map[abdm.RecordID]int),
		appliedEpoch: baseEpoch, baseEpoch: baseEpoch,
		maxID: meta.NextID,
	}
	b.names.learn(append(dir.Attrs(), dir.Files()...))
	switch {
	case meta.HasIndex:
		err = s.openFromImage(b, meta)
	case f.Pages() == 0:
		b.heap = pager.NewHeapAt(pool, nil)
	default:
		err = fmt.Errorf("%w: %s holds %d pages", ErrNoIndexImage, path, f.Pages())
	}
	if err != nil {
		f.Close()
		return nil, pager.Meta{}, err
	}
	if s.seedID != nil {
		s.seedID(abdm.RecordID(b.maxID))
	}
	s.backing = b
	return s, meta, nil
}

// openFromImage restores the access structures from the persisted index
// image — no heap scan, no record bodies.
func (s *Store) openFromImage(b *backing, meta pager.Meta) error {
	payload, pages, err := pager.ReadBlob(b.pool, meta.IndexRoot)
	if err != nil {
		return fmt.Errorf("kdb: reading index image: %w", err)
	}
	img, err := decodeImage(payload)
	if err != nil {
		return err
	}
	b.indexPages = pages
	b.rids = img.rids
	b.fileOfC = img.fileOf
	if img.maxID > b.maxID {
		b.maxID = img.maxID
	}
	b.heap = pager.NewHeapAt(b.pool, img.avail)
	for id, file := range img.fileOf {
		if s.files[file] == nil {
			s.files[file] = make(map[abdm.RecordID]*abdm.Record)
		}
		s.files[file][id] = nil // body paged in on demand
		s.fileOf[id] = file
	}
	switch {
	case s.noIndex:
		// Ablation store: no attribute indexes, whatever the image holds.
	case img.indexed:
		s.indexes = img.indexes
		b.cIndexes = cloneIndexes(img.indexes)
	case len(img.rids) > 0:
		// The image was written by a WithoutIndexes store but this store
		// wants indexes: rebuild them by scanning the heap once.
		err := b.heap.Scan(func(_ pager.RID, cell []byte) error {
			id, rec, err := decodeRecord(cell, &b.names)
			if err != nil {
				return err
			}
			s.indexRecordLocked(b, id, rec)
			return nil
		})
		if err != nil {
			return fmt.Errorf("kdb: corrupt backing record: %w", err)
		}
	}
	return nil
}

// indexRecordLocked adds one committed record's keywords to both the live
// and the committed index (identical at open).
func (s *Store) indexRecordLocked(b *backing, id abdm.RecordID, rec *abdm.Record) {
	for _, kw := range rec.Keywords {
		ix := s.indexes[kw.Attr]
		if ix == nil {
			ix = newAttrIndex()
			s.indexes[kw.Attr] = ix
		}
		ix.add(kw.Val, id)
		cx := b.cIndexes[kw.Attr]
		if cx == nil {
			cx = newAttrIndex()
			b.cIndexes[kw.Attr] = cx
		}
		cx.add(kw.Val, id)
	}
}

// attachBacking wires a fresh (empty) page file to the store.
func (s *Store) attachBacking(f *pager.File) {
	pool := pager.NewPool(f, s.poolPages)
	heap, _ := pager.NewHeap(pool) // empty file: the scan cannot fail
	s.backing = &backing{
		file: f, pool: pool, heap: heap,
		rids:      make(map[abdm.RecordID]pager.RID),
		fileOfC:   make(map[abdm.RecordID]string),
		cIndexes:  make(map[string]*attrIndex),
		pending:   make(map[abdm.RecordID]int),
		baseEpoch: 1,
	}
	s.backing.names.learn(append(s.dir.Attrs(), s.dir.Files()...))
}

// Backed reports whether the store writes through to a page file.
func (s *Store) Backed() bool { return s.backing != nil }

// CloseBacking closes the page file without committing; state since the
// last checkpoint survives only in the journal. A store without backing is
// a no-op.
func (s *Store) CloseBacking() error {
	if s.backing == nil {
		return nil
	}
	return s.backing.file.Close()
}

// BackingStats reports the buffer pool counters and heap page count of a
// backed store.
func (s *Store) BackingStats() (pager.PoolStats, int, bool) {
	if s.backing == nil {
		return pager.PoolStats{}, 0, false
	}
	return s.backing.pool.Stats(), s.backing.file.Pages(), true
}

// BackingMeta reports the page file's current committed generation metadata
// — what a crash right now would recover to. Fleet recovery reads it to seed
// the controller after mounting every store at a common cut.
func (s *Store) BackingMeta() (pager.Meta, bool) {
	if s.backing == nil {
		return pager.Meta{}, false
	}
	return s.backing.file.Meta(), true
}

// ResidentRecords reports how many record bodies are materialised in RAM. A
// backed store keeps a body resident only while it differs from its
// committed heap cell; a memory store holds everything.
func (s *Store) ResidentRecords() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.backing != nil {
		return s.resident
	}
	return len(s.fileOf)
}

// applyBacking writes one committed effect through to the heap, or defers
// it while a checkpoint fence is up. Caller holds the write lock.
func (s *Store) applyBacking(id abdm.RecordID, rec *abdm.Record, epoch uint64) {
	b := s.backing
	if b == nil || b.err != nil {
		return
	}
	if b.fence {
		b.deferred = append(b.deferred, backApply{id: id, rec: rec, epoch: epoch})
		return
	}
	s.applyBackingNow(id, rec, epoch)
}

func (s *Store) applyBackingNow(id abdm.RecordID, rec *abdm.Record, epoch uint64) {
	b := s.backing
	if epoch > b.appliedEpoch {
		b.appliedEpoch = epoch
	}
	if uint64(id) > b.maxID {
		b.maxID = uint64(id)
	}
	rid, exists := b.rids[id]
	var (
		old *abdm.Record
		err error
	)
	// The committed index is maintained by diffing the heap cell being
	// replaced against the new committed value: only the keywords that
	// changed move in it.
	if exists && !s.noIndex {
		old, err = s.fetchLocked(id)
	}
	if rec != nil {
		b.names.learnRecord(rec)
	}
	if err == nil {
		switch {
		case rec == nil && exists:
			err = b.heap.Delete(rid)
			delete(b.rids, id)
			delete(b.fileOfC, id)
			b.img.staleRIDs()
		case rec == nil:
			// Delete of a record the image never held: nothing to do.
		case exists:
			var nr pager.RID
			if nr, err = b.heap.Update(rid, encodeRecord(id, rec)); err == nil {
				// An update in place leaves the primary map's section as
				// the last image wrote it.
				if nr != rid || b.fileOfC[id] != rec.File() {
					b.img.staleRIDs()
				}
				b.rids[id] = nr
				b.fileOfC[id] = rec.File()
			}
		default:
			var nr pager.RID
			if nr, err = b.heap.Put(encodeRecord(id, rec)); err == nil {
				b.rids[id] = nr
				b.fileOfC[id] = rec.File()
				b.img.staleRIDs()
			}
		}
	}
	if err == nil && !s.noIndex {
		b.reindexLocked(id, old, rec)
	}
	if err == nil {
		s.deresidentLocked(id, rec)
		return
	}
	if b.err == nil {
		b.err = fmt.Errorf("kdb: backing write-through: %w", err)
	}
	s.reresidentLocked(id, rec)
}

// reindexLocked moves one record's postings in the committed index from its
// replaced committed value to its new one (either may be nil), touching only
// the keywords that differ: an UPDATE of one attribute leaves the long
// posting lists of the record's shared attributes (FILE, say) alone.
func (b *backing) reindexLocked(id abdm.RecordID, old, rec *abdm.Record) {
	if old != nil {
		for _, kw := range old.Keywords {
			if ix := b.cIndexes[kw.Attr]; ix != nil && !hasKeyword(rec, kw) && ix.remove(kw.Val, id) {
				b.img.staleAttr(kw.Attr)
			}
		}
	}
	if rec == nil {
		return
	}
	for _, kw := range rec.Keywords {
		if hasKeyword(old, kw) {
			continue
		}
		ix := b.cIndexes[kw.Attr]
		if ix == nil {
			ix = newAttrIndex()
			b.cIndexes[kw.Attr] = ix
		}
		if ix.add(kw.Val, id) {
			b.img.staleAttr(kw.Attr)
		}
	}
}

// hasKeyword reports whether r, which may be nil, holds kw's attribute
// under an equal index key.
func hasKeyword(r *abdm.Record, kw abdm.Keyword) bool {
	if r == nil {
		return false
	}
	k := keyOf(kw.Val)
	for _, o := range r.Keywords {
		if o.Attr == kw.Attr && keyOf(o.Val) == k {
			return true
		}
	}
	return false
}

// deresidentLocked drops a record body from RAM after a successful
// write-through: the heap cell now matches the live value, so reads can
// page it back in. A record with uncommitted versions stays resident — its
// live value is ahead of the heap.
func (s *Store) deresidentLocked(id abdm.RecordID, rec *abdm.Record) {
	if rec == nil {
		return
	}
	if s.backing.pending[id] > 0 {
		return
	}
	f, live := s.fileOf[id]
	if !live || f != rec.File() {
		return
	}
	if s.files[f][id] != nil {
		s.files[f][id] = nil
		s.resident--
	}
}

// reresidentLocked pins a record body back into RAM after a failed
// write-through, so reads keep serving the committed value the heap never
// received. The sticky backing error keeps the broken image out of any
// checkpoint.
func (s *Store) reresidentLocked(id abdm.RecordID, rec *abdm.Record) {
	if rec == nil {
		return
	}
	f, live := s.fileOf[id]
	if !live || f != rec.File() {
		return
	}
	if s.files[f][id] == nil {
		s.files[f][id] = rec
		s.resident++
	}
}

// pendingInc counts one uncommitted version of id held in RAM.
func (s *Store) pendingInc(id abdm.RecordID) {
	if s.backing != nil {
		s.backing.pending[id]++
	}
}

// pendingDec releases one uncommitted version of id.
func (s *Store) pendingDec(id abdm.RecordID) {
	if s.backing == nil {
		return
	}
	if n := s.backing.pending[id]; n > 1 {
		s.backing.pending[id] = n - 1
	} else {
		delete(s.backing.pending, id)
	}
}

// backingStamp writes the newest committed state of each stamped chain
// through to the heap. Caller holds the write lock; refs are the chains the
// stamp touched.
func (s *Store) backingStamp(refs []chainRef, epoch uint64) {
	if s.backing == nil {
		return
	}
	seen := make(map[chainRef]bool, len(refs))
	for _, ref := range refs {
		if seen[ref] {
			continue
		}
		seen[ref] = true
		chain := s.mvcc.chains[ref.file][ref.id]
		for i := len(chain) - 1; i >= 0; i-- {
			if chain[i].epoch != 0 {
				s.applyBacking(ref.id, chain[i].rec, epoch)
				break
			}
		}
	}
}

// CheckpointBegin fences the store for a fuzzy checkpoint and returns the
// newest commit epoch the backing has applied — the epoch the image will be
// exact at. Write-throughs queue behind the fence until the checkpoint is
// released; the live maps, reads and group commit proceed untouched.
func (s *Store) CheckpointBegin() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.backing == nil {
		return 0, ErrNoBacking
	}
	if s.backing.err != nil {
		return 0, s.backing.err
	}
	if s.backing.fence {
		return 0, ErrCheckpointActive
	}
	s.backing.fence = true
	return s.backing.appliedEpoch, nil
}

// CheckpointFlush flushes the buffer pool, writes the persisted index image
// into fresh blob pages — re-encoding only the sections written since the
// last image was built, copying the rest — and commits a new page-file
// generation carrying meta plus the image root (NextID is filled in from
// the backing's id high water). It runs without the store lock — the fence raised by
// CheckpointBegin keeps the committed structures frozen — so concurrent
// commits only ever pay the cost of queueing behind the fence. The fence
// stays up; call CheckpointRelease (or use CheckpointCommit, which is
// flush + release).
func (s *Store) CheckpointFlush(meta pager.Meta) error {
	b := s.backing
	if b == nil {
		return ErrNoBacking
	}
	if meta.NextID < b.maxID {
		meta.NextID = b.maxID
	}
	err := b.heap.Flush()
	if err == nil {
		payload := b.img.encode(b.maxID, b.rids, b.fileOfC, b.heap.AvailSnapshot(),
			!s.noIndex, b.cIndexes)
		var pages []uint32
		if pages, err = b.file.WriteBlob(payload); err == nil {
			meta.HasIndex = true
			meta.IndexRoot = pages[0]
			if err = b.file.Commit(meta); err == nil {
				b.ckptPages, b.ckptOK = pages, true
				return nil
			}
			// The image pages never committed; return them to the free list
			// so the next generation doesn't carry garbage.
			for _, id := range pages {
				b.file.FreeLogical(id)
			}
			b.pool.Invalidate(pages)
		}
	}
	b.ckptPages, b.ckptOK = nil, false
	return err
}

// CheckpointRelease lifts the checkpoint fence and drains the deferred
// write-throughs. If the preceding CheckpointFlush committed, the previous
// generation's image pages are freed (durably at the next commit) and the
// new image takes their place; after a failed or skipped flush there is
// nothing to swap.
func (s *Store) CheckpointRelease() {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.backing
	if b == nil {
		return
	}
	if b.ckptOK {
		for _, id := range b.indexPages {
			b.file.FreeLogical(id)
		}
		b.pool.Invalidate(b.indexPages)
		b.indexPages = b.ckptPages
	}
	b.ckptPages, b.ckptOK = nil, false
	b.fence = false
	for _, a := range b.deferred {
		s.applyBackingNow(a.id, a.rec, a.epoch)
	}
	b.deferred = nil
}

// CheckpointCommit is CheckpointFlush followed by CheckpointRelease: the
// single-store checkpoint path.
func (s *Store) CheckpointCommit(meta pager.Meta) error {
	b := s.backing
	if b == nil {
		return ErrNoBacking
	}
	err := s.CheckpointFlush(meta)
	s.CheckpointRelease()
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return b.err
}

// CheckpointAbort lifts the fence without treating the checkpoint as
// complete, draining the deferred write-throughs into the working
// generation. (A flush that already committed its generation stands — the
// image is valid on its own — so abort after flush equals release.)
func (s *Store) CheckpointAbort() {
	s.CheckpointRelease()
}

// ScanBacking streams every record in the page image through the buffer
// pool in page order, decoding each cell. It reads the working generation —
// committed state plus any write-throughs since — and takes the store lock
// only briefly to resolve the heap, so it can overlap normal traffic.
func (s *Store) ScanBacking(fn func(id abdm.RecordID, rec *abdm.Record) error) error {
	s.mu.RLock()
	b := s.backing
	s.mu.RUnlock()
	if b == nil {
		return ErrNoBacking
	}
	return b.heap.Scan(func(_ pager.RID, cell []byte) error {
		id, rec, err := decodeRecord(cell, &b.names)
		if err != nil {
			return err
		}
		return fn(id, rec)
	})
}

// Record codec: a compact binary form for heap cells.
//
//	uvarint id
//	uvarint keyword count
//	per keyword: uvarint len(attr), attr, then the value (kind byte +
//	  payload: int varint; float 8-byte LE bits; string uvarint len, bytes)
//	uvarint len(text), text

func encodeRecord(id abdm.RecordID, rec *abdm.Record) []byte {
	buf := binary.AppendUvarint(nil, uint64(id))
	buf = binary.AppendUvarint(buf, uint64(len(rec.Keywords)))
	for _, kw := range rec.Keywords {
		buf = binary.AppendUvarint(buf, uint64(len(kw.Attr)))
		buf = append(buf, kw.Attr...)
		buf = appendValue(buf, kw.Val)
	}
	buf = binary.AppendUvarint(buf, uint64(len(rec.Text)))
	buf = append(buf, rec.Text...)
	return buf
}

var errShortRecord = errors.New("kdb: truncated record cell")

// decodeRecord decodes one heap cell into a fresh record. Attribute names
// and the FILE value come from names when it holds them, so they share the
// table's strings instead of allocating per row; names may be nil.
func decodeRecord(cell []byte, names *nameTable) (abdm.RecordID, *abdm.Record, error) {
	idU, n := binary.Uvarint(cell)
	if n <= 0 {
		return 0, nil, errShortRecord
	}
	cell = cell[n:]
	nkw, n := binary.Uvarint(cell)
	if n <= 0 {
		return 0, nil, errShortRecord
	}
	cell = cell[n:]
	// Every keyword takes at least two bytes (name length, value kind).
	if nkw > uint64(len(cell)/2) {
		return 0, nil, errShortRecord
	}
	rec := &abdm.Record{Keywords: make([]abdm.Keyword, 0, nkw)}
	for i := uint64(0); i < nkw; i++ {
		ln, n := binary.Uvarint(cell)
		if n <= 0 {
			return 0, nil, errShortRecord
		}
		cell = cell[n:]
		if uint64(len(cell)) < ln {
			return 0, nil, errShortRecord
		}
		attr := names.intern(cell[:ln])
		cell = cell[ln:]
		// String values are data and get their own copy; the FILE value is a
		// file name and is interned like the attribute names.
		var valNames *nameTable
		if attr == abdm.FileAttr {
			valNames = names
		}
		var (
			val abdm.Value
			err error
		)
		if val, cell, err = readValue(cell, valNames); err != nil {
			return 0, nil, err
		}
		rec.Keywords = append(rec.Keywords, abdm.Keyword{Attr: attr, Val: val})
	}
	ln, n := binary.Uvarint(cell)
	if n <= 0 {
		return 0, nil, errShortRecord
	}
	cell = cell[n:]
	if uint64(len(cell)) < ln {
		return 0, nil, errShortRecord
	}
	rec.Text = string(cell[:ln])
	return abdm.RecordID(idU), rec, nil
}

// nameTable interns the attribute and file names the record decoder meets,
// so paging a row in allocates no string for them. It is copy-on-write:
// decoders load the current map without a lock (ScanBacking decodes outside
// the store lock), and a new map replaces it whenever a name is added. Every
// writer holds the store's write lock or owns a store still being opened.
type nameTable struct {
	m atomic.Pointer[map[string]string]
}

// intern returns b as a string, the table's own copy when it holds one. A
// nil table always copies.
func (t *nameTable) intern(b []byte) string {
	if t != nil {
		if m := t.m.Load(); m != nil {
			if s, ok := (*m)[string(b)]; ok {
				return s
			}
		}
	}
	return string(b)
}

func (t *nameTable) has(name string) bool {
	m := t.m.Load()
	if m == nil {
		return false
	}
	_, ok := (*m)[name]
	return ok
}

// learn publishes a table that also holds names, if any of them is new.
func (t *nameTable) learn(names []string) {
	var next map[string]string
	for _, n := range names {
		if n == "" || t.has(n) || next[n] != "" {
			continue
		}
		if next == nil {
			next = make(map[string]string)
			if m := t.m.Load(); m != nil {
				next = maps.Clone(*m)
			}
		}
		next[n] = n
	}
	if next != nil {
		t.m.Store(&next)
	}
}

// learnRecord adds the record's attribute names and file name, checking
// first so that a record with nothing new allocates nothing.
func (t *nameTable) learnRecord(rec *abdm.Record) {
	file := rec.File()
	fresh := file != "" && !t.has(file)
	for _, kw := range rec.Keywords {
		fresh = fresh || !t.has(kw.Attr)
	}
	if !fresh {
		return
	}
	names := []string{file}
	for _, kw := range rec.Keywords {
		names = append(names, kw.Attr)
	}
	t.learn(names)
}
