package pager

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

// RID addresses one record cell: a logical page and a slot within it.
type RID struct {
	Page uint32
	Slot uint16
}

// ErrNotFound reports a RID whose slot is dead or out of range.
var ErrNotFound = errors.New("pager: record not found")

// Heap is an unordered record heap over a buffer pool: records go wherever
// they fit, addressed by RID. Free space per page is tracked in memory —
// rebuilt by scanning on open, or restored from a checkpoint's snapshot —
// and indexed by size class, so an insert finds a page with room without
// ranging over every page.
type Heap struct {
	pool *Pool

	mu    sync.Mutex
	avail map[uint32]int // page -> usable bytes (after compaction)
	// classes[c] holds the pages whose usable bytes have bit length c. Every
	// page in a class above bits.Len(need) has room for need bytes; pages in
	// class bits.Len(need) itself may or may not.
	classes []map[uint32]struct{}
}

// classProbes bounds how many pages of the need's own size class an insert
// checks before it looks only at classes that are sure to fit.
const classProbes = 4

// NewHeap opens a heap over the pool, scanning existing pages to rebuild
// the free-space map. Freed pages and index blob pages are skipped. On a
// freshly created file the scan is empty.
func NewHeap(pool *Pool) (*Heap, error) {
	h := &Heap{pool: pool, avail: make(map[uint32]int)}
	n := pool.File().Pages()
	for id := uint32(0); int(id) < n; id++ {
		if pool.File().IsFree(id) {
			continue
		}
		data, err := pool.Pin(id)
		if err != nil {
			return nil, err
		}
		if PageKindOf(data) == PageKindHeap {
			h.setAvailLocked(id, page(data).usable())
		}
		pool.Unpin(id, false)
	}
	return h, nil
}

// NewHeapAt opens a heap whose free-space map was persisted alongside a
// checkpoint image, skipping NewHeap's full-file scan: avail maps heap page
// id to usable bytes exactly as AvailSnapshot reported it.
func NewHeapAt(pool *Pool, avail map[uint32]int) *Heap {
	h := &Heap{pool: pool, avail: make(map[uint32]int, len(avail))}
	for id, n := range avail {
		h.setAvailLocked(id, n)
	}
	return h
}

// setAvailLocked records page id's usable bytes and files it under its size
// class.
func (h *Heap) setAvailLocked(id uint32, n int) {
	n = max(n, 0)
	c := bits.Len(uint(n))
	if old, ok := h.avail[id]; ok && bits.Len(uint(old)) != c {
		delete(h.classes[bits.Len(uint(old))], id)
	}
	h.avail[id] = n
	for len(h.classes) <= c {
		h.classes = append(h.classes, make(map[uint32]struct{}))
	}
	h.classes[c][id] = struct{}{}
}

// roomyPageLocked picks a page with at least need usable bytes: one of a
// few pages of need's own size class that fits, else any page of the
// smallest class above it.
func (h *Heap) roomyPageLocked(need int) (uint32, bool) {
	c := bits.Len(uint(need))
	if c < len(h.classes) {
		probes := 0
		for id := range h.classes[c] {
			if h.avail[id] >= need {
				return id, true
			}
			if probes++; probes == classProbes {
				break
			}
		}
	}
	for k := c + 1; k < len(h.classes); k++ {
		for id := range h.classes[k] {
			return id, true
		}
	}
	return 0, false
}

// AvailSnapshot returns a copy of the free-space map — heap page id to
// usable bytes — for persisting alongside a checkpoint image.
func (h *Heap) AvailSnapshot() map[uint32]int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[uint32]int, len(h.avail))
	for id, n := range h.avail {
		out[id] = n
	}
	return out
}

// Put stores a record and returns its RID.
func (h *Heap) Put(rec []byte) (RID, error) {
	if len(rec) > pageCapacity(h.pool.File().PageSize()) {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(rec))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	need := len(rec) + slotSize
	for {
		id, ok := h.roomyPageLocked(need)
		if !ok {
			break
		}
		// tryPut refreshes the page's entry, so a page whose recorded room
		// turned out stale is not picked again.
		rid, ok, err := h.tryPut(id, rec)
		if err != nil {
			return RID{}, err
		}
		if ok {
			return rid, nil
		}
	}
	id, data, err := h.pool.Alloc()
	if err != nil {
		return RID{}, err
	}
	slot, _ := page(data).insert(rec)
	h.setAvailLocked(id, page(data).usable())
	h.pool.Unpin(id, true)
	return RID{Page: id, Slot: uint16(slot)}, nil
}

func (h *Heap) tryPut(id uint32, rec []byte) (RID, bool, error) {
	data, err := h.pool.Pin(id)
	if err != nil {
		return RID{}, false, err
	}
	slot, ok := page(data).insert(rec)
	h.setAvailLocked(id, page(data).usable())
	h.pool.Unpin(id, ok)
	if !ok {
		return RID{}, false, nil
	}
	return RID{Page: id, Slot: uint16(slot)}, true, nil
}

// Get returns a copy of the record at rid.
func (h *Heap) Get(rid RID) ([]byte, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	data, err := h.pool.Pin(rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(rid.Page, false)
	cell := page(data).cell(int(rid.Slot))
	if cell == nil {
		return nil, ErrNotFound
	}
	out := make([]byte, len(cell))
	copy(out, cell)
	return out, nil
}

// Delete removes the record at rid.
func (h *Heap) Delete(rid RID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	data, err := h.pool.Pin(rid.Page)
	if err != nil {
		return err
	}
	ok := page(data).del(int(rid.Slot))
	h.setAvailLocked(rid.Page, page(data).usable())
	h.pool.Unpin(rid.Page, ok)
	if !ok {
		return ErrNotFound
	}
	return nil
}

// Update replaces the record at rid, in place when the page still fits it,
// otherwise moving it and returning the new RID.
func (h *Heap) Update(rid RID, rec []byte) (RID, error) {
	if len(rec) > pageCapacity(h.pool.File().PageSize()) {
		return RID{}, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(rec))
	}
	h.mu.Lock()
	data, err := h.pool.Pin(rid.Page)
	if err != nil {
		h.mu.Unlock()
		return RID{}, err
	}
	p := page(data)
	if p.cell(int(rid.Slot)) == nil {
		h.pool.Unpin(rid.Page, false)
		h.mu.Unlock()
		return RID{}, ErrNotFound
	}
	p.del(int(rid.Slot))
	if slot, ok := p.insert(rec); ok {
		h.setAvailLocked(rid.Page, p.usable())
		h.pool.Unpin(rid.Page, true)
		h.mu.Unlock()
		return RID{Page: rid.Page, Slot: uint16(slot)}, nil
	}
	h.setAvailLocked(rid.Page, p.usable())
	h.pool.Unpin(rid.Page, true)
	h.mu.Unlock()
	return h.Put(rec)
}

// Scan calls fn for every live record in page order, skipping freed pages
// and index blob pages. fn's cell slice is only valid during the call.
func (h *Heap) Scan(fn func(rid RID, cell []byte) error) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	n := h.pool.File().Pages()
	for id := uint32(0); int(id) < n; id++ {
		if h.pool.File().IsFree(id) {
			continue
		}
		data, err := h.pool.Pin(id)
		if err != nil {
			return err
		}
		if PageKindOf(data) != PageKindHeap {
			h.pool.Unpin(id, false)
			continue
		}
		var inner error
		page(data).liveCells(func(slot int, cell []byte) {
			if inner == nil {
				inner = fn(RID{Page: id, Slot: uint16(slot)}, cell)
			}
		})
		h.pool.Unpin(id, false)
		if inner != nil {
			return inner
		}
	}
	return nil
}

// GetMany looks up many records with one pin per distinct page: rids must
// be grouped by page (callers sort by page id to visit the heap in page
// order). fn receives the index into rids and the cell bytes, valid only
// during the call; a rid whose slot is dead fails with ErrNotFound.
func (h *Heap) GetMany(rids []RID, fn func(i int, cell []byte) error) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := 0; i < len(rids); {
		id := rids[i].Page
		data, err := h.pool.Pin(id)
		if err != nil {
			return err
		}
		var inner error
		for ; i < len(rids) && rids[i].Page == id; i++ {
			if inner != nil {
				continue
			}
			cell := page(data).cell(int(rids[i].Slot))
			if cell == nil {
				inner = fmt.Errorf("%w: page %d slot %d", ErrNotFound, rids[i].Page, rids[i].Slot)
				continue
			}
			inner = fn(i, cell)
		}
		h.pool.Unpin(id, false)
		if inner != nil {
			return inner
		}
	}
	return nil
}

// Flush writes all buffered changes through the pool; the caller commits
// the file to make them durable.
func (h *Heap) Flush() error {
	return h.pool.FlushAll()
}
