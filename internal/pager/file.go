package pager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync"
)

// File is a copy-on-write page file. Logical pages are the unit the buffer
// pool and heap work with; the file maps them to physical pages through a
// page table that is itself rewritten copy-on-write on every Commit.
// Between commits every write goes to a shadow physical page that the last
// durable generation does not reference, so a crash at any byte leaves the
// previous generation fully intact: Open picks the newest superblock whose
// checksum validates and mounts exactly that state.
//
// Physical layout: physical pages 0 and 1 hold the two superblock slots
// (generation g writes slot g%2); all other physical pages hold data or
// page-table runs.
type File struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	pageSize int
	gen      uint64
	meta     Meta

	durable     []uint32        // logical -> physical, last committed generation
	work        []uint32        // logical -> physical, working generation
	shadowed    map[uint32]bool // logical pages already remapped this generation
	tablePhys   []uint32        // physical pages of the durable generation's table
	free        []uint32        // physical pages no generation references
	freeLogical []uint32        // logical pages freed and reusable by Alloc
	physEnd     uint32          // next never-used physical page
}

// Meta is the checkpoint metadata embedded in every committed generation.
// It binds the page image to an exact journal position: the image is the
// database state after precisely Entries committed journal data entries,
// stamped through MVCC epoch Epoch.
type Meta struct {
	Epoch   uint64 // MVCC epoch the image is exact at
	Entries uint64 // committed journal data entries the image reflects
	MaxKey  int64  // kernel-controller currency-key high water
	NextID  uint64 // record-id high water ever stored

	// HasIndex/IndexRoot locate the root blob page of the persisted index
	// the store wrote with this generation, so reopening loads indexes from
	// their pages instead of rebuilding them by scanning the heap. Absent on
	// generations committed without an index image.
	HasIndex  bool
	IndexRoot uint32
}

const (
	magic         = "MLDSPGF1"
	formatVersion = 2

	superGen     = 16 // superblock field offsets
	superCount   = 24
	superTableAt = 28
	superTableN  = 32
	superPhysEnd = 36
	superEpoch   = 40
	superEntries = 48
	superMaxKey  = 56
	superNextID  = 64

	superIndexRoot = 72 // page id + 1; zero means no persisted index
	superCRC       = 76
	superSize      = 80

	// invalidPhys marks a logical page allocated but never written; Commit
	// refuses to persist one. freedPhys marks a logical page returned to the
	// allocator; unlike invalidPhys it is persisted in the page table, so the
	// free slot survives remounts.
	invalidPhys = 0xFFFFFFFF
	freedPhys   = 0xFFFFFFFE
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports an unreadable page file: no valid superblock, or a data
// page whose checksum does not match.
var ErrCorrupt = errors.New("pager: corrupt page file")

// Create creates a new page file at path with the given page size, truncating
// any existing file. Generation 0 (an empty database) is committed
// immediately, so a crash right after Create still mounts.
func Create(path string, pageSize int) (*File, error) {
	if pageSize < MinPageSize {
		return nil, fmt.Errorf("pager: page size %d below minimum %d", pageSize, MinPageSize)
	}
	fd, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	f := &File{
		f: fd, path: path, pageSize: pageSize,
		shadowed: make(map[uint32]bool),
		physEnd:  2,
	}
	if err := f.Commit(Meta{}); err != nil {
		fd.Close()
		return nil, err
	}
	return f, nil
}

// Open mounts the newest valid generation of an existing page file.
func Open(path string) (*File, error) { return openPath(path, nil) }

// OpenAt mounts the newest valid generation whose committed journal
// position (Meta.Entries) is at most maxEntries. Fleet recovery uses it to
// bring every store of a multi-backend system to one common checkpoint
// position before replaying the shared journal tail. It fails when no
// surviving generation is old enough.
func OpenAt(path string, maxEntries uint64) (*File, error) {
	return openPath(path, &maxEntries)
}

func openPath(path string, maxEntries *uint64) (*File, error) {
	fd, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	f, err := open(fd, path, maxEntries)
	if err != nil {
		fd.Close()
		return nil, err
	}
	return f, nil
}

// candidateSizes lists the page sizes worth probing for: the one slot 0
// advertises when it validates, or every standard size when slot 0 is torn.
func candidateSizes(fd *os.File) []int {
	if ps, ok := probePageSize(fd, 0); ok {
		return []int{ps}
	}
	sizes := []int{DefaultPageSize}
	for s := MinPageSize; s <= 64*1024; s *= 2 {
		sizes = append(sizes, s)
	}
	return sizes
}

// validSupers reads both superblock slots at the given page size and
// returns the ones that validate, newest generation first.
func validSupers(fd *os.File, ps int) [][]byte {
	var supers [][]byte
	for slot := 0; slot < 2; slot++ {
		buf := make([]byte, superSize)
		if _, err := fd.ReadAt(buf, int64(slot*ps)); err != nil {
			continue
		}
		if superValid(buf, ps) {
			supers = append(supers, buf)
		}
	}
	sort.Slice(supers, func(i, j int) bool {
		return binary.LittleEndian.Uint64(supers[i][superGen:]) >
			binary.LittleEndian.Uint64(supers[j][superGen:])
	})
	return supers
}

func open(fd *os.File, path string, maxEntries *uint64) (*File, error) {
	// The page size lives in the superblock; bootstrap by reading the
	// largest supported superblock prefix from both slots at the two
	// candidate offsets. Slot 0 is always at byte 0; slot 1 is one page in,
	// so its location depends on the page size we are trying to discover.
	// Read slot 0 first for the page size, falling back to a scan of
	// standard sizes if slot 0 is the torn one.
	for _, ps := range candidateSizes(fd) {
		// Newest valid superblock first; fall back to the older generation if
		// the newer one's extent turns out torn, and skip generations past
		// the caller's position bound.
		for _, super := range validSupers(fd, ps) {
			if maxEntries != nil && superMeta(super).Entries > *maxEntries {
				continue
			}
			f, err := mount(fd, path, ps, super)
			if err == nil {
				return f, nil
			}
			if !errors.Is(err, ErrCorrupt) {
				return nil, err
			}
		}
	}
	if maxEntries != nil {
		return nil, fmt.Errorf("%w: no valid superblock at or before journal position %d in %s",
			ErrCorrupt, *maxEntries, path)
	}
	return nil, fmt.Errorf("%w: no valid superblock in %s", ErrCorrupt, path)
}

// Metas reports the checkpoint metadata of every valid superblock of the
// file at path — newest generation first — without mounting it. Fleet
// recovery reads these to compute the newest journal position every store
// of a system can mount at.
func Metas(path string) ([]Meta, error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fd.Close()
	for _, ps := range candidateSizes(fd) {
		supers := validSupers(fd, ps)
		if len(supers) == 0 {
			continue
		}
		metas := make([]Meta, len(supers))
		for i, super := range supers {
			metas[i] = superMeta(super)
		}
		return metas, nil
	}
	return nil, fmt.Errorf("%w: no valid superblock in %s", ErrCorrupt, path)
}

// probePageSize reads just enough of a superblock slot to learn the page
// size, without trusting anything else in it.
func probePageSize(fd *os.File, off int64) (int, bool) {
	buf := make([]byte, superSize)
	if _, err := fd.ReadAt(buf, off); err != nil {
		return 0, false
	}
	if string(buf[:8]) != magic {
		return 0, false
	}
	ps := int(binary.LittleEndian.Uint32(buf[12:16]))
	if ps < MinPageSize || ps > 1<<24 {
		return 0, false
	}
	return ps, superValid(buf, ps)
}

func superValid(buf []byte, pageSize int) bool {
	if string(buf[:8]) != magic {
		return false
	}
	if binary.LittleEndian.Uint16(buf[8:10]) != formatVersion {
		return false
	}
	if int(binary.LittleEndian.Uint32(buf[12:16])) != pageSize {
		return false
	}
	want := binary.LittleEndian.Uint32(buf[superCRC:])
	return crc32.Checksum(buf[:superCRC], crcTable) == want
}

// superMeta decodes the checkpoint metadata of a validated superblock.
func superMeta(buf []byte) Meta {
	m := Meta{
		Epoch:   binary.LittleEndian.Uint64(buf[superEpoch:]),
		Entries: binary.LittleEndian.Uint64(buf[superEntries:]),
		MaxKey:  int64(binary.LittleEndian.Uint64(buf[superMaxKey:])),
		NextID:  binary.LittleEndian.Uint64(buf[superNextID:]),
	}
	if root := binary.LittleEndian.Uint32(buf[superIndexRoot:]); root != 0 {
		m.HasIndex, m.IndexRoot = true, root-1
	}
	return m
}

func mount(fd *os.File, path string, pageSize int, super []byte) (*File, error) {
	f := &File{
		f: fd, path: path, pageSize: pageSize,
		shadowed: make(map[uint32]bool),
	}
	f.gen = binary.LittleEndian.Uint64(super[superGen:])
	count := binary.LittleEndian.Uint32(super[superCount:])
	tableAt := binary.LittleEndian.Uint32(super[superTableAt:])
	tableN := binary.LittleEndian.Uint32(super[superTableN:])
	f.physEnd = binary.LittleEndian.Uint32(super[superPhysEnd:])
	// Every physical page from 2 up to physEnd was written and synced before
	// the superblock that references it; a shorter file is torn. A file with
	// no such page (the generation Create commits) ends inside superblock
	// slot 1.
	if st, err := fd.Stat(); err != nil {
		return nil, err
	} else if f.physEnd > 2 && st.Size() < int64(f.physEnd)*int64(pageSize) {
		return nil, fmt.Errorf("%w: file truncated below generation %d's extent", ErrCorrupt, f.gen)
	}
	f.meta = superMeta(super)

	// Read the page table: count entries of 4 bytes over tableN physical
	// pages starting at tableAt (a contiguous run).
	f.durable = make([]uint32, count)
	if count > 0 {
		raw := make([]byte, int(tableN)*pageSize)
		if _, err := fd.ReadAt(raw, int64(tableAt)*int64(pageSize)); err != nil {
			return nil, fmt.Errorf("%w: page table unreadable: %v", ErrCorrupt, err)
		}
		for i := range f.durable {
			f.durable[i] = binary.LittleEndian.Uint32(raw[i*4:])
		}
		for i := uint32(0); i < tableN; i++ {
			f.tablePhys = append(f.tablePhys, tableAt+i)
		}
	}
	f.work = append([]uint32(nil), f.durable...)
	for id, p := range f.work {
		if p == freedPhys {
			f.freeLogical = append(f.freeLogical, uint32(id))
		}
	}
	f.rebuildFree()
	return f, nil
}

// rebuildFree recomputes the free list: every physical page below physEnd
// that neither the durable mapping nor the durable table occupies.
func (f *File) rebuildFree() {
	used := make(map[uint32]bool, len(f.work)+len(f.tablePhys)+2)
	used[0], used[1] = true, true
	for _, p := range f.work {
		if p != invalidPhys && p != freedPhys {
			used[p] = true
		}
	}
	for _, p := range f.tablePhys {
		used[p] = true
	}
	f.free = f.free[:0]
	for p := uint32(2); p < f.physEnd; p++ {
		if !used[p] {
			f.free = append(f.free, p)
		}
	}
}

// Meta returns the checkpoint metadata of the last committed generation.
func (f *File) Meta() Meta {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.meta
}

// Generation returns the last committed generation number.
func (f *File) Generation() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gen
}

// PageSize returns the page size the file was created with.
func (f *File) PageSize() int { return f.pageSize }

// Path returns the file's path.
func (f *File) Path() string { return f.path }

// Pages returns the number of logical pages in the working generation.
func (f *File) Pages() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.work)
}

// Alloc returns a fresh logical page id, reusing a freed slot when one
// exists and extending the working generation otherwise. The page must be
// written before the next Commit.
func (f *File) Alloc() uint32 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.freeLogical); n > 0 {
		id := f.freeLogical[n-1]
		f.freeLogical = f.freeLogical[:n-1]
		f.work[id] = invalidPhys
		f.shadowed[id] = true
		return id
	}
	id := uint32(len(f.work))
	f.work = append(f.work, invalidPhys)
	f.shadowed[id] = true
	return id
}

// FreeLogical returns a logical page to the allocator. The physical page a
// durable generation maps it to stays reserved until the next Commit stops
// referencing it, so a crash still mounts the previous generation intact; a
// shadow page written only this generation is reclaimed immediately.
func (f *File) FreeLogical(id uint32) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if int(id) >= len(f.work) {
		return fmt.Errorf("pager: FreeLogical of unallocated page %d", id)
	}
	p := f.work[id]
	if p == freedPhys {
		return nil
	}
	if f.shadowed[id] && p != invalidPhys {
		f.free = append(f.free, p)
	}
	f.work[id] = freedPhys
	f.shadowed[id] = true
	f.freeLogical = append(f.freeLogical, id)
	return nil
}

// IsFree reports whether logical page id is currently on the free list.
func (f *File) IsFree(id uint32) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return int(id) < len(f.work) && f.work[id] == freedPhys
}

// allocPhysLocked claims a physical page no live generation references.
func (f *File) allocPhysLocked() uint32 {
	if n := len(f.free); n > 0 {
		p := f.free[n-1]
		f.free = f.free[:n-1]
		return p
	}
	p := f.physEnd
	f.physEnd++
	return p
}

// allocRunLocked claims n consecutive physical pages, reusing a free run
// when one exists so steady-state commits do not grow the file.
func (f *File) allocRunLocked(n uint32) uint32 {
	sort.Slice(f.free, func(i, j int) bool { return f.free[i] < f.free[j] })
	for i := 0; i+int(n) <= len(f.free); i++ {
		if f.free[i+int(n)-1] == f.free[i]+n-1 {
			start := f.free[i]
			f.free = append(f.free[:i], f.free[i+int(n):]...)
			return start
		}
	}
	start := f.physEnd
	f.physEnd += n
	return start
}

// WritePage writes a logical page. The first write of a generation goes to
// a fresh shadow physical page; later writes to the same logical page land
// in place, since the shadow is not yet referenced by any durable state.
// The page's checksum field (bytes 0:4) is filled in here; data must be
// exactly one page long.
func (f *File) WritePage(id uint32, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(data) != f.pageSize {
		return fmt.Errorf("pager: WritePage got %d bytes, want %d", len(data), f.pageSize)
	}
	if int(id) >= len(f.work) {
		return fmt.Errorf("pager: WritePage of unallocated page %d", id)
	}
	if f.work[id] == freedPhys {
		return fmt.Errorf("pager: WritePage of freed page %d", id)
	}
	if !f.shadowed[id] {
		f.work[id] = f.allocPhysLocked()
		f.shadowed[id] = true
	} else if f.work[id] == invalidPhys {
		f.work[id] = f.allocPhysLocked()
	}
	binary.LittleEndian.PutUint32(data[0:4], crc32.Checksum(data[4:], crcTable))
	_, err := f.f.WriteAt(data, int64(f.work[id])*int64(f.pageSize))
	return err
}

// ReadPage reads a logical page into buf (one page long) and verifies its
// checksum.
func (f *File) ReadPage(id uint32, buf []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(buf) != f.pageSize {
		return fmt.Errorf("pager: ReadPage got %d-byte buffer, want %d", len(buf), f.pageSize)
	}
	if int(id) >= len(f.work) {
		return fmt.Errorf("pager: ReadPage of unallocated page %d", id)
	}
	phys := f.work[id]
	if phys == invalidPhys {
		return fmt.Errorf("pager: ReadPage of never-written page %d", id)
	}
	if phys == freedPhys {
		return fmt.Errorf("pager: ReadPage of freed page %d", id)
	}
	if _, err := f.f.ReadAt(buf, int64(phys)*int64(f.pageSize)); err != nil {
		return err
	}
	if crc32.Checksum(buf[4:], crcTable) != binary.LittleEndian.Uint32(buf[0:4]) {
		return fmt.Errorf("%w: page %d checksum mismatch", ErrCorrupt, id)
	}
	return nil
}

// Commit makes the working generation durable with the given checkpoint
// metadata: page table to fresh physical pages, data fsync, superblock to
// the alternate slot, superblock fsync. After Commit the previous
// generation's shadow-replaced pages return to the free list.
func (f *File) Commit(meta Meta) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for id, p := range f.work {
		if p == invalidPhys {
			return fmt.Errorf("pager: Commit with never-written page %d", id)
		}
	}

	// Write the table into physical pages referenced by neither the durable
	// nor the working generation. The run must be contiguous; fresh pages
	// from physEnd always are.
	tableBytes := len(f.work) * 4
	tableN := uint32(0)
	tableAt := uint32(0)
	var newTable []uint32
	if tableBytes > 0 {
		tableN = uint32((tableBytes + f.pageSize - 1) / f.pageSize)
		tableAt = f.allocRunLocked(tableN)
		raw := make([]byte, int(tableN)*f.pageSize)
		for i, p := range f.work {
			binary.LittleEndian.PutUint32(raw[i*4:], p)
		}
		if _, err := f.f.WriteAt(raw, int64(tableAt)*int64(f.pageSize)); err != nil {
			return err
		}
		for i := uint32(0); i < tableN; i++ {
			newTable = append(newTable, tableAt+i)
		}
	}
	if err := f.f.Sync(); err != nil {
		return err
	}

	gen := f.gen + 1
	super := make([]byte, superSize)
	copy(super, magic)
	binary.LittleEndian.PutUint16(super[8:10], formatVersion)
	binary.LittleEndian.PutUint32(super[12:16], uint32(f.pageSize))
	binary.LittleEndian.PutUint64(super[superGen:], gen)
	binary.LittleEndian.PutUint32(super[superCount:], uint32(len(f.work)))
	binary.LittleEndian.PutUint32(super[superTableAt:], tableAt)
	binary.LittleEndian.PutUint32(super[superTableN:], tableN)
	binary.LittleEndian.PutUint32(super[superPhysEnd:], f.physEnd)
	binary.LittleEndian.PutUint64(super[superEpoch:], meta.Epoch)
	binary.LittleEndian.PutUint64(super[superEntries:], meta.Entries)
	binary.LittleEndian.PutUint64(super[superMaxKey:], uint64(meta.MaxKey))
	binary.LittleEndian.PutUint64(super[superNextID:], meta.NextID)
	if meta.HasIndex {
		binary.LittleEndian.PutUint32(super[superIndexRoot:], meta.IndexRoot+1)
	}
	binary.LittleEndian.PutUint32(super[superCRC:], crc32.Checksum(super[:superCRC], crcTable))
	if _, err := f.f.WriteAt(super, int64(gen%2)*int64(f.pageSize)); err != nil {
		return err
	}
	if err := f.f.Sync(); err != nil {
		return err
	}

	f.gen = gen
	f.meta = meta
	f.durable = append(f.durable[:0], f.work...)
	f.tablePhys = newTable
	f.shadowed = make(map[uint32]bool)
	f.rebuildFree()
	return nil
}

// Close closes the underlying file without committing.
func (f *File) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.f.Close()
}
